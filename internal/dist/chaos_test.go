package dist

import (
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/sim"
)

// TestChaosBitIdentity is the randomized-fault half of the headline
// guarantee: with workers dying after leasing items, leases
// force-expired under live workers, and completions delivered twice,
// the distributed run must still produce results bit-identical to a
// serial engine — and the coordinator's accounting must show that no
// item was lost (every enqueued item completed exactly once) and no
// duplicate payload ever differed. Runs under -race in CI, so it
// doubles as the concurrency soak for the lease/complete/requeue
// paths.
func TestChaosBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	faultinject.Enable(faultinject.Plan{
		// Kill the first two leased items outright (guaranteed early
		// chaos, exercising the Rule.First clause), then every 5th.
		"dist/worker.kill": {First: 2, Every: 5},
		// Force-expire every live lease on every 3rd lease attempt:
		// stragglers keep finishing items the coordinator has
		// re-dispatched.
		"dist/lease.expire": {Every: 3},
		// Re-send every 2nd delivered completion.
		"dist/worker.dupcomplete": {Every: 2},
	})
	defer faultinject.Disable()

	const (
		workers = 3
		shards  = 3
		budget  = 4000
	)
	benches := identBenches(t)
	configs := []string{"gshare", "tage-gsc+imli"}

	cluster, err := StartLocal(workers, CoordinatorConfig{LeaseTTL: 100 * time.Millisecond},
		func(i int) *sim.Engine { return sim.NewEngine(sim.EngineConfig{Workers: 2}) })
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// No coordinator-side store: every (config, bench) chain must cross
	// the wire, so Completed counts enqueued items one for one.
	serial := sim.NewEngine(sim.EngineConfig{Shards: shards, ExactShards: true})
	dist := sim.NewEngine(sim.EngineConfig{
		Shards: shards, ExactShards: true, Remote: cluster.Coordinator,
	})
	for _, config := range configs {
		ref := serial.RunSuite(builderFor(config), config, "cbp4", benches, budget)
		got := dist.RunSuite(builderFor(config), config, "cbp4", benches, budget)
		requireSameRun(t, "chaos", config, ref, got)
	}

	// Every fault site must actually have fired — a chaos test around
	// unreached sites proves nothing.
	for _, site := range []string{"dist/worker.kill", "dist/lease.expire", "dist/worker.dupcomplete"} {
		if faultinject.Hits(site) == 0 {
			t.Errorf("fault site %s never reached", site)
		}
	}

	st := cluster.Coordinator.Stats()
	// No lost items: every enqueued (config × bench) exact chain
	// completed. No double-counting: each completed exactly once —
	// later deliveries are Duplicates, not Completed.
	if want := uint64(len(configs) * len(benches)); st.Completed != want {
		t.Errorf("completed = %d items, want exactly %d", st.Completed, want)
	}
	if st.Expired == 0 || st.Requeued == 0 {
		t.Errorf("no lease ever expired under the expiry plan: %+v", st)
	}
	if st.Duplicates == 0 && st.Stale == 0 {
		t.Errorf("no duplicate or stale completion under the chaos plan: %+v", st)
	}
	if st.Mismatches != 0 {
		t.Errorf("%d duplicate payloads mismatched — determinism broken: %+v", st.Mismatches, st)
	}
	if st.Failures != 0 {
		t.Errorf("chaos plan injects no simulation errors, but %d failures were reported", st.Failures)
	}
	if st.Pending != 0 || st.Leased != 0 {
		t.Errorf("queue not drained: %+v", st)
	}
}
