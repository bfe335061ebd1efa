package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/faultinject"
	"repro/internal/sim"
)

// specN returns a distinct, well-formed plain item.
func specN(n int) sim.ItemSpec {
	return sim.ItemSpec{Config: "gshare", Suite: "cbp4", Bench: "b", Seed: uint64(n),
		Budget: 1000, Shard: 0, Shards: 1, Warmup: 100}
}

// resultsFor is a stand-in payload: deterministic in the spec, like a
// real simulation.
func resultsFor(spec sim.ItemSpec) []client.WorkResult {
	return []client.WorkResult{{Trace: spec.Bench, Predictor: spec.Config,
		Instructions: 4 * spec.Seed, Records: 1000, Conditionals: spec.Seed, Mispredicted: 1}}
}

// outcome carries one RunItem's return pair.
type outcome struct {
	res []sim.Result
	err error
}

// startItem runs RunItem on its own goroutine, like the engine's
// worker pool does.
func startItem(c *Coordinator, spec sim.ItemSpec) chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		res, err := c.RunItem(context.Background(), spec)
		ch <- outcome{res, err}
	}()
	return ch
}

// awaitLease waits until the coordinator hands out an item (RunItem
// enqueues on a goroutine, so the queue fills asynchronously).
func awaitLease(t *testing.T, c *Coordinator, worker string) client.WorkLease {
	t.Helper()
	l, ok := c.Lease(context.Background(), worker, time.Now().Add(5*time.Second))
	if !ok {
		t.Fatal("no lease granted within 5s")
	}
	return l
}

// tryLease makes one lease attempt without waiting.
func tryLease(c *Coordinator, worker string) (client.WorkLease, bool) {
	return c.Lease(context.Background(), worker, time.Time{})
}

func TestLeaseFIFOAndComplete(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	a, b := specN(1), specN(2)
	chA := startItem(c, a)
	// Enqueue order must be deterministic for the FIFO assertion.
	awaitPending(t, c, 1)
	chB := startItem(c, b)
	awaitPending(t, c, 2)

	l1 := awaitLease(t, c, "w1")
	l2 := awaitLease(t, c, "w2")
	if fromWireItem(l1.Item) != a || fromWireItem(l2.Item) != b {
		t.Fatalf("lease order = %v, %v; want FIFO %v, %v", l1.Item, l2.Item, a, b)
	}
	if _, ok := tryLease(c, "w3"); ok {
		t.Fatal("third lease granted with an empty queue")
	}

	for _, l := range []client.WorkLease{l1, l2} {
		ack := c.Complete(client.WorkCompletion{Lease: l.Lease, Item: l.Item,
			Results: resultsFor(fromWireItem(l.Item))})
		if !ack.Accepted || ack.Duplicate || ack.Stale {
			t.Fatalf("completion ack = %+v", ack)
		}
	}
	for i, ch := range []chan outcome{chA, chB} {
		out := <-ch
		if out.err != nil || len(out.res) != 1 {
			t.Fatalf("item %d: res=%v err=%v", i, out.res, out.err)
		}
	}
	st := c.Stats()
	if st.Dispatched != 2 || st.Completed != 2 || st.Done != 2 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// awaitPending polls until the queue holds n pending items.
func awaitPending(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Pending >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d pending items", n)
}

func TestExpiredLeaseRequeuesItem(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: 5 * time.Millisecond})
	defer c.Close()
	spec := specN(1)
	ch := startItem(c, spec)
	l1 := awaitLease(t, c, "doomed")

	// The waiting request wakes at l1's deadline and expires it; the
	// same item comes back.
	l2 := awaitLease(t, c, "heir")
	if fromWireItem(l2.Item) != spec {
		t.Fatalf("re-dispatched item = %v, want %v", l2.Item, spec)
	}
	if l2.Lease == l1.Lease {
		t.Fatal("re-dispatch reused the expired lease ID")
	}
	st := c.Stats()
	if st.Expired != 1 || st.Requeued != 1 {
		t.Fatalf("stats after expiry = %+v", st)
	}

	// The straggler's completion under the dead lease arrives first:
	// item-keyed crediting accepts it, marked stale.
	ack := c.Complete(client.WorkCompletion{Lease: l1.Lease, Item: l1.Item, Results: resultsFor(spec)})
	if !ack.Accepted || !ack.Stale || ack.Duplicate {
		t.Fatalf("stale completion ack = %+v", ack)
	}
	if out := <-ch; out.err != nil {
		t.Fatalf("RunItem err = %v", out.err)
	}

	// The heir finishes too: a duplicate, verified and discarded.
	ack = c.Complete(client.WorkCompletion{Lease: l2.Lease, Item: l2.Item, Results: resultsFor(spec)})
	if !ack.Accepted || !ack.Duplicate {
		t.Fatalf("duplicate completion ack = %+v", ack)
	}
	st = c.Stats()
	if st.Stale != 1 || st.Duplicates != 1 || st.Mismatches != 0 || st.Completed != 1 {
		t.Fatalf("stats after duplicate = %+v", st)
	}
}

func TestDuplicateMismatchIsCounted(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	spec := specN(1)
	ch := startItem(c, spec)
	l := awaitLease(t, c, "w")
	c.Complete(client.WorkCompletion{Lease: l.Lease, Item: l.Item, Results: resultsFor(spec)})
	<-ch

	bad := resultsFor(spec)
	bad[0].Mispredicted++
	c.Complete(client.WorkCompletion{Lease: "bogus", Item: l.Item, Results: bad})
	if st := c.Stats(); st.Mismatches != 1 || st.Duplicates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorCompletionsExhaustBudgetThenFail(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	spec := specN(1)
	ch := startItem(c, spec)

	// Each failure before the last requeues the item; the last
	// exhausts the budget.
	for i := 1; i < maxFailures; i++ {
		l := awaitLease(t, c, "w")
		ack := c.Complete(client.WorkCompletion{Lease: l.Lease, Item: l.Item, Error: fmt.Sprintf("boom %d", i)})
		if !ack.Accepted {
			t.Fatalf("error %d ack = %+v", i, ack)
		}
		select {
		case out := <-ch:
			t.Fatalf("RunItem returned after %d of %d failures: %+v", i, maxFailures, out)
		default:
		}
	}
	l := awaitLease(t, c, "w")
	c.Complete(client.WorkCompletion{Lease: l.Lease, Item: l.Item, Error: "boom last"})
	out := <-ch
	if out.err == nil || !strings.Contains(out.err.Error(), "boom last") {
		t.Fatalf("RunItem err = %v, want the last failure", out.err)
	}
	if st := c.Stats(); st.Failures != maxFailures {
		t.Fatalf("stats = %+v", st)
	}

	// A failed item leaves the index: the identical request retries
	// fresh instead of replaying the cached failure.
	ch2 := startItem(c, spec)
	l = awaitLease(t, c, "w")
	c.Complete(client.WorkCompletion{Lease: l.Lease, Item: l.Item, Results: resultsFor(spec)})
	if out := <-ch2; out.err != nil {
		t.Fatalf("fresh retry err = %v", out.err)
	}
}

// TestWrongResultCountIsAFailure: every completion carries exactly one
// result — an exact chain's too, merged over its shards, so one result
// per shard is malformed.
func TestWrongResultCountIsAFailure(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	for _, tc := range []struct {
		spec    sim.ItemSpec
		results int
	}{
		{specN(1), 2},
		{sim.ItemSpec{Config: "gshare", Suite: "cbp4", Bench: "b", Seed: 2, Budget: 1000, Shards: 3, Exact: true}, 3},
	} {
		ch := startItem(c, tc.spec)
		var results []client.WorkResult
		for i := 0; i < tc.results; i++ {
			results = append(results, resultsFor(tc.spec)...)
		}
		// Every malformed completion charges the failure budget.
		for i := 0; i < maxFailures; i++ {
			l := awaitLease(t, c, "w")
			c.Complete(client.WorkCompletion{Lease: l.Lease, Item: l.Item, Results: results})
		}
		out := <-ch
		if out.err == nil || !strings.Contains(out.err.Error(), "want 1") {
			t.Fatalf("%+v: RunItem err = %v, want result-count failure", tc.spec, out.err)
		}
	}
}

func TestUnknownItemNotCredited(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	spec := specN(99)
	ack := c.Complete(client.WorkCompletion{Lease: "l1", Item: toWireItem(spec), Results: resultsFor(spec)})
	if ack.Accepted {
		t.Fatalf("unknown item ack = %+v, want Accepted=false", ack)
	}
}

func TestConcurrentIdenticalItemsShareOneExecution(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	spec := specN(1)
	ch1 := startItem(c, spec)
	awaitPending(t, c, 1)
	ch2 := startItem(c, spec)

	l := awaitLease(t, c, "w")
	if _, ok := tryLease(c, "w"); ok {
		t.Fatal("identical in-flight items were enqueued twice")
	}
	c.Complete(client.WorkCompletion{Lease: l.Lease, Item: l.Item, Results: resultsFor(spec)})
	for i, ch := range []chan outcome{ch1, ch2} {
		if out := <-ch; out.err != nil || len(out.res) != 1 {
			t.Fatalf("waiter %d: %+v", i, out)
		}
	}
	if st := c.Stats(); st.Dispatched != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	ch := startItem(c, specN(1))
	awaitPending(t, c, 1)
	c.Close()
	c.Close() // idempotent
	out := <-ch
	if !errors.Is(out.err, ErrClosed) {
		t.Fatalf("RunItem err = %v, want ErrClosed", out.err)
	}
	if _, ok := tryLease(c, "w"); ok {
		t.Fatal("closed coordinator granted a lease")
	}
}

// TestCanceledRunItemReturnsCtxErr: a canceled RunItem returns
// ctx.Err(). When its last waiter leaves, a pending item is withdrawn,
// so a canceled job's work never reaches a worker; an identical request
// still waiting keeps it, and a leased item runs to completion.
func TestCanceledRunItemReturnsCtxErr(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	start := func(spec sim.ItemSpec) (chan outcome, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		ch := make(chan outcome, 1)
		go func() {
			res, err := c.RunItem(ctx, spec)
			ch <- outcome{res, err}
		}()
		return ch, cancel
	}
	canceled := func(ch chan outcome, cancel context.CancelFunc) {
		t.Helper()
		cancel()
		if out := <-ch; !errors.Is(out.err, context.Canceled) {
			t.Fatalf("RunItem err = %v, want context.Canceled", out.err)
		}
	}

	// The only waiter leaves: the item is withdrawn.
	ch, cancel := start(specN(1))
	awaitPending(t, c, 1)
	canceled(ch, cancel)
	if l, ok := tryLease(c, "w"); ok {
		t.Fatalf("withdrawn item leased: %+v", l)
	}
	if st := c.Stats(); st.Pending != 0 || st.Leased != 0 || st.Dispatched != 0 {
		t.Fatalf("stats after the only waiter left = %+v", st)
	}

	// One of two identical waiters leaves: the other keeps the item.
	spec := specN(2)
	chA, cancelA := start(spec)
	awaitWaiters(t, c, spec, 1)
	chB, cancelB := start(spec)
	defer cancelB()
	awaitWaiters(t, c, spec, 2)
	canceled(chA, cancelA)
	l := awaitLease(t, c, "w")
	if fromWireItem(l.Item) != spec {
		t.Fatalf("leased %v, want %v", l.Item, spec)
	}
	c.Complete(client.WorkCompletion{Lease: l.Lease, Item: l.Item, Results: resultsFor(spec)})
	if out := <-chB; out.err != nil || len(out.res) != 1 {
		t.Fatalf("remaining waiter: %+v", out)
	}

	// A leased item's only waiter leaves: the item runs to completion.
	spec = specN(3)
	ch, cancel = start(spec)
	l = awaitLease(t, c, "w")
	canceled(ch, cancel)
	ack := c.Complete(client.WorkCompletion{Lease: l.Lease, Item: l.Item, Results: resultsFor(spec)})
	if !ack.Accepted || ack.Stale || ack.Duplicate {
		t.Fatalf("completion of a leased item without waiters: %+v", ack)
	}
	if st := c.Stats(); st.Completed != 2 || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("final stats = %+v", st)
	}
}

// awaitWaiters waits until n RunItem calls wait on spec's item.
func awaitWaiters(t *testing.T, c *Coordinator, spec sim.ItemSpec, n int) {
	t.Helper()
	k := itemKey(spec)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		it := c.items[k]
		got := it != nil && it.waiters == n
		c.mu.Unlock()
		if got {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("item %v never had %d waiters", spec, n)
}

func TestInjectedLeaseExpiryForcesRedispatch(t *testing.T) {
	faultinject.Enable(faultinject.Plan{"dist/lease.expire": {Every: 1}})
	defer faultinject.Disable()
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Hour})
	defer c.Close()
	spec := specN(1)
	startItem(c, spec)
	l1 := awaitLease(t, c, "w")

	// TTL is an hour, but the injected fault expires the live lease on
	// the very next lease attempt.
	l2 := awaitLease(t, c, "w")
	if l2.Lease == l1.Lease || fromWireItem(l2.Item) != spec {
		t.Fatalf("forced expiry did not re-dispatch: %+v then %+v", l1, l2)
	}
	if faultinject.Hits("dist/lease.expire") == 0 {
		t.Fatal("fault site dist/lease.expire never reached")
	}
	if st := c.Stats(); st.Expired == 0 || st.Requeued == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
