package sim

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
)

func TestItemSpecValidate(t *testing.T) {
	good := ItemSpec{Config: "gshare", Suite: "cbp4", Bench: "SPEC2K6-04", Seed: 1,
		Budget: 1000, Shard: 1, Shards: 4, Warmup: 100}
	cases := []struct {
		name string
		mut  func(*ItemSpec)
		want string // substring of the error, "" = valid
	}{
		{"valid", func(*ItemSpec) {}, ""},
		{"unknown config", func(s *ItemSpec) { s.Config = "no-such-config" }, "config"},
		{"unknown bench", func(s *ItemSpec) { s.Bench = "no-such-bench" }, "bench"},
		{"zero budget", func(s *ItemSpec) { s.Budget = 0 }, "budget"},
		{"zero shards", func(s *ItemSpec) { s.Shards = 0 }, "shards"},
		{"negative shard", func(s *ItemSpec) { s.Shard = -1 }, "out of range"},
		{"shard past count", func(s *ItemSpec) { s.Shard = 4 }, "out of range"},
		{"exact chain ignores shard index", func(s *ItemSpec) { s.Shard = 4; s.Exact = true }, ""},
		{"negative warmup", func(s *ItemSpec) { s.Warmup = -1 }, "warmup"},
	}
	for _, tc := range cases {
		spec := good
		tc.mut(&spec)
		err := spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Validate = %v, want nil", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestRunItemMatchesLocalShard: executing a leased item must yield the
// byte-exact result of the equivalent local work item, using the
// item's geometry rather than the executing engine's.
func TestRunItemMatchesLocalShard(t *testing.T) {
	b := workload.CBP4()[0]
	// The worker's own configuration is deliberately different from the
	// item's geometry: geometry must come from the item.
	worker := NewEngine(EngineConfig{Shards: 7})
	item := ItemSpec{Config: "gshare", Suite: "cbp4", Bench: b.Name, Seed: b.Seed,
		Budget: 9000, Shard: 1, Shards: 3, Warmup: 500}
	res, err := worker.RunItem(context.Background(), item)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("plain item returned %d results, want 1", len(res))
	}
	ref := NewEngine(EngineConfig{}).runShardGeom(context.Background(), builderFor("gshare"), b, item, func(int, bool) {})
	if res[0] != ref {
		t.Errorf("RunItem %+v != local shard %+v", res[0], ref)
	}
}

// TestRunItemExactChainMatchesLocal: a leased exact chain returns one
// result, merged over the whole chain, equal to a local exact-sharded
// suite run and to the plain Feed path.
func TestRunItemExactChainMatchesLocal(t *testing.T) {
	b := workload.CBP4()[1]
	worker := NewEngine(EngineConfig{})
	item := ItemSpec{Config: "bimodal", Suite: "cbp4", Bench: b.Name, Seed: b.Seed,
		Budget: 9000, Shards: 3, Exact: true}
	res, err := worker.RunItem(context.Background(), item)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("exact chain returned %d results, want 1", len(res))
	}
	local := NewEngine(EngineConfig{Shards: 3, ExactShards: true}).
		RunSuite(builderFor("bimodal"), "bimodal", "cbp4", []workload.Benchmark{b}, 9000)
	if res[0] != local.Results[0] {
		t.Errorf("RunItem %+v != local chain %+v", res[0], local.Results[0])
	}
	direct, err := RunBenchmark("bimodal", b, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != direct {
		t.Errorf("RunItem %+v != RunBenchmark %+v", res[0], direct)
	}
}

func TestRunItemRejectsInvalidAndSurvivesSeed(t *testing.T) {
	worker := NewEngine(EngineConfig{})
	if _, err := worker.RunItem(context.Background(), ItemSpec{Config: "nope"}); err == nil {
		t.Error("invalid item accepted")
	}
	// A remixed seed (seed-sweep variant) must flow into the generator:
	// same bench name, different seed, different counters.
	b := workload.CBP4()[0]
	mk := func(seed uint64) Result {
		res, err := worker.RunItem(context.Background(),
			ItemSpec{Config: "gshare", Suite: "cbp4", Bench: b.Name, Seed: seed, Budget: 5000, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	if mk(b.Seed) == mk(b.Seed^0x1234) {
		t.Error("remixed seed produced identical counters — Seed is not reaching the generator")
	}
}

// recordingRemote proxies to a backing engine and counts dispatches —
// enough to observe which items the coordinator side sends remotely.
type recordingRemote struct {
	backend *Engine
	calls   atomic.Int64
}

func (r *recordingRemote) RunItem(ctx context.Context, item ItemSpec) ([]Result, error) {
	r.calls.Add(1)
	return r.backend.RunItem(ctx, item)
}

func TestRemoteDispatchBitIdenticalAndEligibilityGated(t *testing.T) {
	benches := workload.CBP4()[:2]
	remote := &recordingRemote{backend: NewEngine(EngineConfig{})}
	e := NewEngine(EngineConfig{Shards: 2, Remote: remote})

	ref := NewEngine(EngineConfig{Shards: 2}).RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 8000)
	run := e.RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 8000)
	for i := range ref.Results {
		if run.Results[i] != ref.Results[i] {
			t.Errorf("%s: remote %+v != local %+v", ref.Results[i].Trace, run.Results[i], ref.Results[i])
		}
	}
	if got, want := remote.calls.Load(), int64(len(benches)*2); got != want {
		t.Errorf("remote dispatches = %d, want %d", got, want)
	}

	// A non-registry config name is not rebuildable remotely: the same
	// engine must run it locally, without touching the RemoteRunner.
	before := remote.calls.Load()
	e.RunSuite(builderFor("gshare"), "not-in-registry", "cbp4", benches, 8000)
	if after := remote.calls.Load(); after != before {
		t.Errorf("custom config dispatched %d items remotely, want 0", after-before)
	}
}
