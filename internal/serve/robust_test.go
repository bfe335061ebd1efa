package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fastRetry keeps client backoffs in the microsecond range.
func fastRetry() *client.RetryPolicy {
	return &client.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond}
}

// oneShot disables client retries so a test can observe raw 429/503s.
func oneShot() *client.RetryPolicy { return &client.RetryPolicy{MaxAttempts: 1} }

// TestKillMidJobReplayBitIdentical is the in-process crash-safety
// property, randomized over kill points: a server killed after k
// progress events leaves a journal whose replay completes the job with
// a result bit-identical to an uninterrupted run. "Killed" here means
// the journal handle is closed (so no terminal record can land, the
// on-disk image a SIGKILL leaves) and every job is hard-canceled.
// crashMidJob runs a journaled single-worker server in dir, submits
// spec, and "crashes" it after the kill-th progress event: the journal
// handle is closed first (terminal records can no longer land — the
// on-disk state a SIGKILL leaves), then every job is hard-canceled. It
// reports whether the crash landed mid-job (the job can, very rarely,
// finish in the microseconds between the SSE event and the close; the
// caller retries in a fresh dir so the test stays deterministic).
func crashMidJob(t *testing.T, dir string, spec client.Spec, kill int) (string, bool) {
	t.Helper()
	jnl, err := journal.Open(dir + "/imlid.journal")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{
		Engine:  sim.NewEngine(sim.EngineConfig{CacheDir: dir, ExactShards: true, Workers: 1}),
		Journal: jnl,
	})
	hs := httptest.NewServer(srv.Handler())
	c := client.New(hs.URL)
	c.Retry = oneShot()
	ctx := context.Background()

	job, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	seen, finished := 0, false
	sentinel := fmt.Errorf("kill point")
	err = c.Watch(ctx, job.ID, func(ev client.Event) error {
		if ev.Type == "progress" {
			seen++
			if seen > kill {
				return sentinel
			}
		}
		if ev.Type == "done" {
			finished = true
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("watch to kill point: %v", err)
	}
	jnl.Close()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = srv.Drain(expired)
	hs.Close()
	return job.ID, !finished
}

func TestKillMidJobReplayBitIdentical(t *testing.T) {
	const config, suite, budget = "gshare", "cbp4", 200000
	spec := client.Spec{Type: client.JobSuite, Config: config, Suite: suite, Budget: budget}
	ref := sim.NewEngine(sim.EngineConfig{}).RunSuite(
		func() predictor.Predictor { return predictor.MustNew(config) },
		config, suite, workload.Suites()[suite], budget)

	for _, kill := range []int{0, 1, 3, 7} {
		t.Run(fmt.Sprintf("after %d progress events", kill), func(t *testing.T) {
			var dir, jobID string
			landed := false
			for try := 0; try < 5 && !landed; try++ {
				dir = t.TempDir()
				jobID, landed = crashMidJob(t, dir, spec, kill)
			}
			if !landed {
				t.Fatal("job kept outrunning the crash; could not kill mid-job")
			}

			// Restart: reopen the journal; the job must be pending and
			// replay to a bit-identical result.
			jnl2, err := journal.Open(dir + "/imlid.journal")
			if err != nil {
				t.Fatalf("reopen journal: %v", err)
			}
			if p := jnl2.Pending(); len(p) != 1 || p[0].ID != jobID {
				t.Fatalf("pending after crash = %+v, want exactly %s", p, jobID)
			}
			srv2 := serve.NewServer(serve.Config{
				Engine:  sim.NewEngine(sim.EngineConfig{CacheDir: dir, ExactShards: true}),
				Journal: jnl2,
			})
			hs2 := httptest.NewServer(srv2.Handler())
			t.Cleanup(func() {
				drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				_ = srv2.Drain(drainCtx)
				hs2.Close()
				jnl2.Close()
			})
			c2 := client.New(hs2.URL)
			ctx := context.Background()
			view, err := c2.Job(ctx, jobID)
			if err != nil || !view.Replayed {
				t.Fatalf("replayed job view = %+v, %v; want Replayed=true under the original ID", view, err)
			}
			final, err := c2.Wait(ctx, jobID, nil)
			if err != nil {
				t.Fatalf("wait on replayed job: %v", err)
			}
			if final.Status != client.StatusDone {
				t.Fatalf("replayed job finished %s: %s", final.Status, final.Error)
			}
			res, err := c2.Result(ctx, jobID)
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range res.Suite.Results {
				if want := sim.FormatResult(ref.Results[i]); got.Text != want {
					t.Fatalf("trace %s not bit-identical after replay:\nreplayed: %s\ndirect:   %s",
						got.Trace, got.Text, want)
				}
			}
		})
	}
}

// TestWaitSurvivesInjectedFaults is the fault-tolerance acceptance
// criterion: with SSE connections dropping and the store faulting on
// reads and writes, client.Wait must complete without surfacing an
// error, without duplicating events, and with the right result.
func TestWaitSurvivesInjectedFaults(t *testing.T) {
	defer faultinject.Disable()
	dir := t.TempDir()
	srv := serve.NewServer(serve.Config{
		Engine: sim.NewEngine(sim.EngineConfig{CacheDir: dir, ExactShards: true}),
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		faultinject.Disable()
		drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Drain(drainCtx)
		hs.Close()
	})
	c := client.New(hs.URL)
	c.Retry = fastRetry()
	ctx := context.Background()

	faultinject.Enable(faultinject.Plan{
		"serve/sse.stream": {Every: 2},
		"sim/store.load":   {Every: 2},
		"sim/store.save":   {Every: 2},
	})

	job, err := c.Submit(ctx, client.Spec{Type: client.JobSuite, Config: "gshare", Suite: "cbp3", Budget: 10000})
	if err != nil {
		t.Fatalf("submit under faults: %v", err)
	}
	var running, done, progress int
	lastDone := 0
	final, err := c.Wait(ctx, job.ID, func(ev client.Event) {
		switch ev.Type {
		case "status":
			if ev.Job != nil && ev.Job.Status == client.StatusRunning {
				running++
			}
		case "progress":
			progress++
			if ev.Progress.Done <= lastDone {
				t.Errorf("progress Done went %d -> %d: duplicated or reordered event", lastDone, ev.Progress.Done)
			}
			lastDone = ev.Progress.Done
		case "done":
			done++
		}
	})
	if err != nil {
		t.Fatalf("Wait surfaced an error despite retries: %v", err)
	}
	if final.Status != client.StatusDone {
		t.Fatalf("job finished %s: %s", final.Status, final.Error)
	}
	if running != 1 || done != 1 {
		t.Fatalf("saw %d running / %d done events, want exactly 1 of each (no duplicates across reconnects)", running, done)
	}
	if benches := len(workload.Suites()["cbp3"]); progress != benches {
		t.Fatalf("saw %d progress events, want one per benchmark (%d)", progress, benches)
	}
	if faultinject.Hits("serve/sse.stream") == 0 {
		t.Fatal("the SSE fault point never fired; the test exercised nothing")
	}
}

// TestDrainUnderLoadLosesNothing hammers Submit from many goroutines
// while the server drains: afterwards every accepted job must be
// finished with its journal lifecycle closed (nothing pending =
// nothing lost, no phantom replay), and the deduplicated spec must
// not have simulated its work item more than once.
func TestDrainUnderLoadLosesNothing(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir + "/imlid.journal")
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(sim.EngineConfig{CacheDir: dir})
	srv := serve.NewServer(serve.Config{Engine: engine, Journal: jnl, JobWorkers: 2, QueueDepth: 256})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	c.Retry = oneShot()
	ctx := context.Background()

	// Everyone submits the same spec (the dedup target) plus a few
	// unique ones to keep the queue churning.
	shared := client.Spec{Type: client.JobBench, Config: "gshare", Bench: "WS04", Budget: 3000}
	var mu sync.Mutex
	var accepted []string
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				spec := shared
				if i%2 == 1 {
					spec.Budget = 3000 + g*100 + i // unique spec
				}
				j, err := c.Submit(ctx, spec)
				if err != nil {
					continue // draining or queue-full rejections are fine
				}
				if !j.Dedup {
					mu.Lock()
					accepted = append(accepted, j.ID)
					mu.Unlock()
				}
			}
		}(g)
	}
	// Drain concurrently with the submissions.
	drainCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	wg.Wait()
	if drainErr != nil {
		t.Fatalf("Drain: %v", drainErr)
	}

	// Every accepted job reached a terminal state.
	for _, id := range accepted {
		j, ok := srv.Job(id)
		if !ok {
			t.Fatalf("accepted job %s vanished", id)
		}
		if !j.Status.Finished() {
			t.Fatalf("accepted job %s ended the drain %s, want a terminal status", id, j.Status)
		}
	}
	// The journal agrees: closing and reopening finds nothing pending —
	// every accepted record got its terminal, so a restart would replay
	// nothing (no lost job, no phantom).
	jnl.Close()
	jnl2, err := journal.Open(dir + "/imlid.journal")
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if p := jnl2.Pending(); len(p) != 0 {
		t.Fatalf("journal pending after clean drain = %+v, want none", p)
	}
	// The deduplicated spec's single work item simulated at most once;
	// every other run of it was a store hit. Unique specs add one item
	// each, so total simulations are bounded by distinct specs.
	stats := engine.Stats()
	if distinct := uint64(1 + 8*3); stats.Simulated > distinct {
		t.Fatalf("engine simulated %d items for at most %d distinct specs: a deduplicated job double-ran", stats.Simulated, distinct)
	}
}

// TestJournalHoldsAcceptedAndTerminalOnly pins what a finished job
// leaves in the journal: its accepted and done records, byte for byte
// what a fresh journal holding just those two entries contains. Replay
// keys off accepted and terminal records only, so the server writes
// (and fsyncs) nothing for the queued → running edge.
func TestJournalHoldsAcceptedAndTerminalOnly(t *testing.T) {
	dir := t.TempDir()
	jnl, err := journal.Open(dir + "/imlid.journal")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(serve.Config{Engine: sim.NewEngine(sim.EngineConfig{}), Journal: jnl})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()

	job, err := c.Submit(ctx, client.Spec{Type: client.JobBench, Config: "gshare", Bench: "MM-4", Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Wait(ctx, job.ID, nil); err != nil || final.Status != client.StatusDone {
		t.Fatalf("job ended %+v, %v; want done", final, err)
	}
	// Drain returns once the job's worker is done, terminal record included.
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	want, err := journal.Open(dir + "/want.journal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []journal.Entry{
		{Kind: journal.KindAccepted, ID: job.ID, Spec: job.Spec},
		{Kind: journal.KindDone, ID: job.ID},
	} {
		if err := want.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	want.Close()
	got, err := os.ReadFile(dir + "/imlid.journal")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := os.ReadFile(dir + "/want.journal")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, exp) {
		t.Fatalf("journal after one finished job is %d bytes, want %d (accepted + done only)", len(got), len(exp))
	}
}

func TestRateLimit429WithRetryAfter(t *testing.T) {
	srv := serve.NewServer(serve.Config{RatePerSec: 0.5, RateBurst: 2})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Drain(drainCtx)
		hs.Close()
	})

	// Burst of 2 passes; the third request is shed with the retry
	// envelope.
	got429 := false
	for i := 0; i < 3; i++ {
		resp, err := http.Get(hs.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch {
		case i < 2 && resp.StatusCode != http.StatusOK:
			t.Fatalf("request %d within burst = %d, want 200", i, resp.StatusCode)
		case i == 2:
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("request past burst = %d, want 429", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without a Retry-After hint")
			}
			got429 = true
		}
	}
	if !got429 {
		t.Fatal("rate limit never triggered")
	}
	// /healthz is exempt: probes must always get through.
	for i := 0; i < 5; i++ {
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz = %d while rate-limited, want 200 (exempt)", resp.StatusCode)
		}
	}
}

func TestQueueFull429WithRetryAfter(t *testing.T) {
	// One worker, depth 1: the worker takes the first job, the queue
	// holds one more, and further submissions are shed.
	srv := serve.NewServer(serve.Config{JobWorkers: 1, QueueDepth: 1})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = srv.Drain(drainCtx)
		hs.Close()
	})
	c := client.New(hs.URL)
	c.Retry = oneShot()
	ctx := context.Background()

	var shed *client.Error
	for i := 0; i < 6; i++ {
		spec := client.Spec{Type: client.JobSuite, Config: "gshare", Suite: "cbp4", Budget: 100000 + i}
		if _, err := c.Submit(ctx, spec); err != nil {
			he, ok := err.(*client.Error)
			if !ok {
				t.Fatalf("submit %d: %v, want *client.Error", i, err)
			}
			if he.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("overloaded submit = %d (%s), want 429", he.StatusCode, he.Message)
			}
			shed = he
			break
		}
	}
	if shed == nil {
		t.Fatal("queue of depth 1 absorbed 6 long jobs without shedding")
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("429 RetryAfter = %v, want a positive hint", shed.RetryAfter)
	}
}

func TestHealthz503WhileDraining(t *testing.T) {
	srv := serve.NewServer(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", resp.StatusCode)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
}

// TestSubmitOversizedBody413: a job spec body past
// client.MaxRequestBytes is refused with 413 in the JSON error
// envelope, and no job is created.
func TestSubmitOversizedBody413(t *testing.T) {
	srv := serve.NewServer(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body := `{"type":"suite","config":"gshare","suite":"cbp4","bench":"` +
		strings.Repeat("a", client.MaxRequestBytes) + `"}`
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("413 body is not the JSON error envelope: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env["error"] == "" {
		t.Fatalf("oversized submit = %d %v, want 413 with an error message", resp.StatusCode, env)
	}
	if jobs := srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized submit created %d jobs", len(jobs))
	}
}
