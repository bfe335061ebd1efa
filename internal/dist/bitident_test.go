package dist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// identBenches is a small cross-kernel workload: enough to exercise
// multi-item scheduling without making the every-config sweep slow.
func identBenches(t *testing.T) []workload.Benchmark {
	t.Helper()
	var out []workload.Benchmark
	for _, n := range []string{"SPEC2K6-04", "MM-4"} {
		b, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func builderFor(config string) func() predictor.Predictor {
	return func() predictor.Predictor { return predictor.MustNew(config) }
}

// requireSameRun asserts two suite runs carry bit-identical results —
// the raw counter structs and the formatted output lines both.
func requireSameRun(t *testing.T, label, config string, ref, got sim.SuiteRun) {
	t.Helper()
	if len(ref.Results) != len(got.Results) {
		t.Fatalf("%s/%s: %d results vs %d", label, config, len(got.Results), len(ref.Results))
	}
	for i := range ref.Results {
		if got.Results[i] != ref.Results[i] {
			t.Errorf("%s/%s/%s: distributed %+v != serial %+v",
				label, config, ref.Results[i].Trace, got.Results[i], ref.Results[i])
		}
		if rl, gl := sim.FormatResult(ref.Results[i]), sim.FormatResult(got.Results[i]); rl != gl {
			t.Errorf("%s/%s: output line differs:\n  distributed: %s\n  serial:      %s", label, config, gl, rl)
		}
	}
}

// TestDistributedBitIdentityAllConfigs is the headline guarantee
// (ISSUE: distributed multi-node engine proven bit-identical): a
// coordinator engine fanning work out to in-process workers over a
// real loopback HTTP wire produces byte-identical results to a plain
// serial engine, for every configuration in the registry, in both
// sharding modes (exact boundary-snapshot chains and plain warm-up
// sharding).
func TestDistributedBitIdentityAllConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("every-config distributed sweep in -short mode")
	}
	const (
		workers = 3
		shards  = 3
		budget  = 4000
	)
	benches := identBenches(t)
	cluster, err := StartLocal(workers, CoordinatorConfig{}, func(i int) *sim.Engine {
		return sim.NewEngine(sim.EngineConfig{Workers: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Exact mode: ExactShards on, merged counters must equal
	// the serial engine's bit for bit.
	serialExact := sim.NewEngine(sim.EngineConfig{Shards: shards, ExactShards: true})
	distExact := sim.NewEngine(sim.EngineConfig{
		Shards: shards, ExactShards: true,
		Store: sim.OpenStore(t.TempDir()), Remote: cluster.Coordinator,
	})
	// Plain warm-up sharding: each shard is its own leased item.
	serialPlain := sim.NewEngine(sim.EngineConfig{Shards: shards})
	distPlain := sim.NewEngine(sim.EngineConfig{Shards: shards, Remote: cluster.Coordinator})

	for _, config := range predictor.Names() {
		ref := serialExact.RunSuite(builderFor(config), config, "cbp4", benches, budget)
		got := distExact.RunSuite(builderFor(config), config, "cbp4", benches, budget)
		requireSameRun(t, "exact", config, ref, got)

		ref = serialPlain.RunSuite(builderFor(config), config, "cbp4", benches, budget)
		got = distPlain.RunSuite(builderFor(config), config, "cbp4", benches, budget)
		requireSameRun(t, "plain", config, ref, got)
	}
	st := cluster.Coordinator.Stats()
	if st.Completed == 0 {
		t.Fatal("no work item ever crossed the wire — the sweep tested nothing")
	}
	if st.Mismatches != 0 {
		t.Fatalf("coordinator saw %d duplicate-payload mismatches, want 0", st.Mismatches)
	}
}

// TestDistributedStoreIsMergePoint re-runs a distributed suite against
// the same coordinator-side cache and expects pure cache hits: remote
// results land under the exact store keys a local run would use, so
// the second run never touches the cluster.
func TestDistributedStoreIsMergePoint(t *testing.T) {
	benches := identBenches(t)
	cluster, err := StartLocal(2, CoordinatorConfig{}, func(i int) *sim.Engine {
		return sim.NewEngine(sim.EngineConfig{Workers: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	cfg := sim.EngineConfig{Shards: 3, ExactShards: true, Store: sim.OpenStore(t.TempDir()), Remote: cluster.Coordinator}
	e1 := sim.NewEngine(cfg)
	run1 := e1.RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 4000)
	dispatched := cluster.Coordinator.Stats().Dispatched

	e2 := sim.NewEngine(cfg)
	run2 := e2.RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 4000)
	for i := range run1.Results {
		if run1.Results[i] != run2.Results[i] {
			t.Errorf("re-run differs at %s", run1.Results[i].Trace)
		}
	}
	if run2.CachedShards != len(benches)*3 || run2.RanShards != 0 {
		t.Errorf("re-run = %d cached / %d ran, want all %d cached", run2.CachedShards, run2.RanShards, len(benches)*3)
	}
	if after := cluster.Coordinator.Stats().Dispatched; after != dispatched {
		t.Errorf("re-run dispatched %d new leases, want 0", after-dispatched)
	}
}

// TestCustomBuilderFallsBackLocal: a configuration that is not a
// registry name cannot be rebuilt remotely, so the engine must run it
// locally — correct results, nothing dispatched.
func TestCustomBuilderFallsBackLocal(t *testing.T) {
	benches := identBenches(t)[:1]
	cluster, err := StartLocal(1, CoordinatorConfig{}, func(i int) *sim.Engine {
		return sim.NewEngine(sim.EngineConfig{})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	e := sim.NewEngine(sim.EngineConfig{Shards: 2, Remote: cluster.Coordinator})
	custom := func() predictor.Predictor { return predictor.MustNew("gshare") }
	run := e.RunSuite(custom, "my-private-config", "cbp4", benches, 3000)
	ref := sim.NewEngine(sim.EngineConfig{Shards: 2}).RunSuite(custom, "my-private-config", "cbp4", benches, 3000)
	for i := range ref.Results {
		if run.Results[i] != ref.Results[i] {
			t.Errorf("local fallback differs at %s", ref.Results[i].Trace)
		}
	}
	if st := cluster.Coordinator.Stats(); st.Dispatched != 0 {
		t.Errorf("custom-builder run dispatched %d items remotely, want 0", st.Dispatched)
	}
}

func TestStartLocalRejectsZeroWorkers(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := StartLocal(n, CoordinatorConfig{}, nil); err == nil {
			t.Errorf("StartLocal(%d) = nil error, want rejection", n)
		} else if want := fmt.Sprintf("got %d", n); !strings.Contains(err.Error(), want) {
			t.Errorf("StartLocal(%d) error %q does not name the count", n, err)
		}
	}
}
