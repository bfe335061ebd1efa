package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/sim"
)

// TestWorkEndpointsRejectOversizedBodies: a lease request or a
// completion past client.MaxRequestBytes is refused with 413 in the
// JSON error envelope.
func TestWorkEndpointsRejectOversizedBodies(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	hs := httptest.NewServer(c.Handler())
	defer hs.Close()

	pad := strings.Repeat("w", client.MaxRequestBytes)
	for path, body := range map[string]string{
		"/v1/work/lease":    `{"worker":"` + pad + `"}`,
		"/v1/work/complete": `{"lease":"l1","worker":"` + pad + `"}`,
	} {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]string
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: 413 body is not the JSON error envelope: %v", path, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || env["error"] == "" {
			t.Errorf("%s oversized = %d %v, want 413 with an error message", path, resp.StatusCode, env)
		}
	}
}

// TestLocalServerTimeouts: the cluster's coordinator server bounds the
// wait for request headers, so a client trickling headers cannot hold a
// connection forever, and leaves WriteTimeout unset.
func TestLocalServerTimeouts(t *testing.T) {
	cl, err := StartLocal(1, CoordinatorConfig{}, func(int) *sim.Engine { return sim.NewEngine(sim.EngineConfig{}) })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.srv.ReadHeaderTimeout <= 0 || cl.srv.IdleTimeout <= 0 || cl.srv.WriteTimeout != 0 {
		t.Errorf("ReadHeaderTimeout=%s IdleTimeout=%s WriteTimeout=%s; want the first two set, WriteTimeout zero",
			cl.srv.ReadHeaderTimeout, cl.srv.IdleTimeout, cl.srv.WriteTimeout)
	}
}

// serveCoordinator serves a fresh coordinator's work API on a loopback
// test server and returns a client of it with retries off.
func serveCoordinator(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *client.Client) {
	t.Helper()
	c := NewCoordinator(cfg)
	hs := httptest.NewServer(c.Handler())
	// Closing the coordinator first answers any waiting lease request,
	// which the server's Close waits for.
	t.Cleanup(func() { c.Close(); hs.Close() })
	cl := client.New(hs.URL)
	cl.Retry = &client.RetryPolicy{MaxAttempts: 1}
	return c, cl
}

// TestLeaseRequestWaitsForWork: a lease request on an empty queue is
// answered with an item enqueued while it waits.
func TestLeaseRequestWaitsForWork(t *testing.T) {
	c, cl := serveCoordinator(t, CoordinatorConfig{})
	spec := specN(1)
	time.AfterFunc(50*time.Millisecond, func() { startItem(c, spec) })
	start := time.Now()
	l, ok, err := cl.LeaseWork(context.Background(), "w")
	if err != nil || !ok {
		t.Fatalf("LeaseWork = ok %v, err %v; want the item enqueued 50ms later", ok, err)
	}
	if fromWireItem(l.Item) != spec {
		t.Fatalf("leased %v, want %v", l.Item, spec)
	}
	if waited := time.Since(start); waited < 40*time.Millisecond || waited > 5*time.Second {
		t.Errorf("answered after %s; the item was enqueued after 50ms", waited)
	}
}

// TestWaitingLeasePicksUpExpiredItem: one waiting request re-dispatches
// an abandoned lease's item once the lease expires, with no client-side
// poll.
func TestWaitingLeasePicksUpExpiredItem(t *testing.T) {
	c, cl := serveCoordinator(t, CoordinatorConfig{LeaseTTL: 100 * time.Millisecond})
	spec := specN(1)
	startItem(c, spec)
	ctx := context.Background()
	l1, ok, err := cl.LeaseWork(ctx, "doomed")
	if err != nil || !ok {
		t.Fatalf("first lease: ok %v, err %v", ok, err)
	}
	start := time.Now()
	l2, ok, err := cl.LeaseWork(ctx, "heir")
	if err != nil || !ok {
		t.Fatalf("waiting lease: ok %v, err %v; want the expired item", ok, err)
	}
	if fromWireItem(l2.Item) != spec || l2.Lease == l1.Lease {
		t.Fatalf("re-dispatch = %+v after %+v", l2, l1)
	}
	if waited := time.Since(start); waited < 50*time.Millisecond || waited > 5*time.Second {
		t.Errorf("re-dispatched after %s; the lease expired after 100ms", waited)
	}
	if st := c.Stats(); st.Expired != 1 || st.Requeued != 1 || st.Dispatched != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWaitingLeaseEnds: a waiting lease returns empty-handed promptly
// when its context ends or the coordinator closes, and a request that
// has gone away takes no item.
func TestWaitingLeaseEnds(t *testing.T) {
	// wait leases from an empty queue and stops the wait 50ms in.
	wait := func(ctx context.Context, c *Coordinator, stop func()) {
		t.Helper()
		time.AfterFunc(50*time.Millisecond, stop)
		start := time.Now()
		if l, ok := c.Lease(ctx, "w", time.Now().Add(time.Minute)); ok {
			t.Fatalf("empty queue granted %+v", l)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("waiting lease returned %s after it was stopped", waited)
		}
	}
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	wait(ctx, c, cancel)

	// A request whose context has ended takes no item.
	startItem(c, specN(1))
	awaitPending(t, c, 1)
	if l, ok := c.Lease(ctx, "w", time.Now().Add(time.Minute)); ok {
		t.Fatalf("ended request took %+v", l)
	}
	if st := c.Stats(); st.Pending != 1 || st.Dispatched != 0 {
		t.Fatalf("stats after an ended request = %+v", st)
	}

	// A worker that hangs up while waiting: its handler returns, and
	// the next item stays queued for the next request.
	c2 := NewCoordinator(CoordinatorConfig{})
	returned := make(chan struct{}, 1)
	h := c2.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		returned <- struct{}{}
	}))
	defer func() { c2.Close(); hs.Close() }()
	cl := client.New(hs.URL)
	cl.Retry = &client.RetryPolicy{MaxAttempts: 1}
	hangup, cancel2 := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel2()
	if _, ok, err := cl.LeaseWork(hangup, "gone"); ok || err == nil {
		t.Fatalf("abandoned lease request = ok %v, err %v", ok, err)
	}
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("lease handler still waiting 5s after its client hung up")
	}
	startItem(c2, specN(2))
	awaitPending(t, c2, 1)
	if st := c2.Stats(); st.Dispatched != 0 {
		t.Fatalf("a departed waiter took the item: %+v", st)
	}

	// Close answers a waiting request at once.
	c3 := NewCoordinator(CoordinatorConfig{})
	wait(context.Background(), c3, c3.Close)
}

// TestCompletionCarriesNextLease: a completion asking for Next gets
// the next pending item's lease in its acknowledgment, and on an empty
// queue an acknowledgment without one, at once.
func TestCompletionCarriesNextLease(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	a, b := specN(1), specN(2)
	chA := startItem(c, a)
	awaitPending(t, c, 1)
	chB := startItem(c, b)
	awaitPending(t, c, 2)

	l := awaitLease(t, c, "w")
	ack := c.Complete(client.WorkCompletion{Lease: l.Lease, Item: l.Item, Worker: "w", Results: resultsFor(a), Next: true})
	if !ack.Accepted || ack.Next == nil || fromWireItem(ack.Next.Item) != b {
		t.Fatalf("ack = %+v, want b's lease in Next", ack)
	}
	start := time.Now()
	next := *ack.Next
	ack = c.Complete(client.WorkCompletion{Lease: next.Lease, Item: next.Item, Worker: "w", Results: resultsFor(b), Next: true})
	if !ack.Accepted || ack.Stale || ack.Next != nil {
		t.Fatalf("ack on an empty queue = %+v, want accepted without Next", ack)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("completion on an empty queue took %s", d)
	}
	for i, ch := range []chan outcome{chA, chB} {
		if out := <-ch; out.err != nil || len(out.res) != 1 {
			t.Fatalf("item %d: %+v", i, out)
		}
	}
	if st := c.Stats(); st.Dispatched != 2 || st.Completed != 2 || st.Stale != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// The work wire as it was before completions could ask for the next
// lease. Old and new peers interoperate because neither side's JSON
// decoder rejects unknown fields.
type oldCompletion struct {
	Lease   string              `json:"lease"`
	Item    client.WorkItem     `json:"item"`
	Worker  string              `json:"worker,omitempty"`
	Results []client.WorkResult `json:"results,omitempty"`
	Error   string              `json:"error,omitempty"`
}

type oldAck struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate,omitempty"`
	Stale     bool `json:"stale,omitempty"`
}

// TestOldAndNewPeersInteroperate: a new worker finishes items for a
// coordinator that answers leases at once and never sends a next
// lease, and an old worker finishes items for a new coordinator.
func TestOldAndNewPeersInteroperate(t *testing.T) {
	b := identBenches(t)[0]
	specs := make([]sim.ItemSpec, 3)
	for i := range specs {
		specs[i] = sim.ItemSpec{Config: "gshare", Suite: "cbp4", Bench: b.Name, Seed: b.Seed,
			Budget: 1000 + i, Shards: 1}
	}
	local := sim.NewEngine(sim.EngineConfig{})
	runAll := func(t *testing.T, c *Coordinator) {
		t.Helper()
		for _, spec := range specs {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			res, err := c.RunItem(ctx, spec)
			cancel()
			want, _ := local.RunItem(context.Background(), spec)
			if err != nil || len(res) != 1 || res[0] != want[0] {
				t.Fatalf("item %+v: res %+v, err %v; want %+v", spec, res, err, want)
			}
		}
	}

	t.Run("new worker, old coordinator", func(t *testing.T) {
		c := NewCoordinator(CoordinatorConfig{})
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/work/lease", func(w http.ResponseWriter, r *http.Request) {
			var req client.WorkLeaseRequest
			if !readJSON(w, r, &req, "") {
				return
			}
			l, ok := c.Lease(r.Context(), req.Worker, time.Time{})
			if !ok {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			writeJSON(w, http.StatusOK, l)
		})
		mux.HandleFunc("POST /v1/work/complete", func(w http.ResponseWriter, r *http.Request) {
			var comp oldCompletion
			if !readJSON(w, r, &comp, "") {
				t.Error("old coordinator rejected a new completion")
				return
			}
			ack := c.Complete(client.WorkCompletion{Lease: comp.Lease, Item: comp.Item, Worker: comp.Worker,
				Results: comp.Results, Error: comp.Error})
			writeJSON(w, http.StatusOK, oldAck{Accepted: ack.Accepted, Duplicate: ack.Duplicate, Stale: ack.Stale})
		})
		hs := httptest.NewServer(mux)
		ctx, stop := context.WithCancel(context.Background())
		done := make(chan struct{})
		w := &Worker{Client: client.New(hs.URL), Engine: sim.NewEngine(sim.EngineConfig{}), Name: "new",
			Poll: time.Millisecond}
		go func() {
			defer close(done)
			_ = w.Run(ctx)
		}()
		defer func() { stop(); <-done; c.Close(); hs.Close() }()
		runAll(t, c)
	})

	t.Run("old worker, new coordinator", func(t *testing.T) {
		c, cl := serveCoordinator(t, CoordinatorConfig{})
		ctx, stop := context.WithCancel(context.Background())
		done := make(chan struct{})
		eng := sim.NewEngine(sim.EngineConfig{})
		go func() {
			defer close(done)
			for ctx.Err() == nil {
				l, ok, err := cl.LeaseWork(ctx, "old")
				if err != nil || !ok {
					continue
				}
				res, err := eng.RunItem(ctx, fromWireItem(l.Item))
				if err != nil {
					return
				}
				body, _ := json.Marshal(oldCompletion{Lease: l.Lease, Item: l.Item, Worker: "old", Results: toWireResults(res)})
				resp, err := http.Post(cl.BaseURL+"/v1/work/complete", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var ack oldAck
				if err := json.Unmarshal(raw, &ack); err != nil || !ack.Accepted || bytes.Contains(raw, []byte("nextLease")) {
					t.Errorf("ack to an old completion = %s (%v)", raw, err)
				}
			}
		}()
		defer func() { stop(); <-done }()
		runAll(t, c)
	})
}
