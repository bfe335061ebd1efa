package sim

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/predictor"
	"repro/internal/snap"
	"repro/internal/workload"
)

// countingBuilder builds registry predictors of config and keeps every
// instance it built, in build order.
type countingBuilder struct {
	config string
	mu     sync.Mutex
	built  []predictor.Predictor
}

func (c *countingBuilder) build() predictor.Predictor {
	p := predictor.MustNew(c.config)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.built = append(c.built, p)
	return p
}

func (c *countingBuilder) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.built)
}

// freeList returns the predictors the engine's pool for config holds.
func freeList(e *Engine, config string) []predictor.Predictor {
	pp := e.pool(config)
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return slices.Clone(pp.free)
}

// TestPredictorPoolBuildsAtMostWorkers: an engine builds no more
// predictors of a configuration than it runs items of it at once, and
// the reused predictors give every benchmark the results of a newly
// built one.
func TestPredictorPoolBuildsAtMostWorkers(t *testing.T) {
	const config, budget = "tage-gsc+imli", 3000
	benches := workload.CBP4()[:8]
	ref := NewEngine(EngineConfig{StreamMemory: -1}).RunSuite(builderFor(config), config, "cbp4", benches, budget)
	for _, workers := range []int{1, 3} {
		cb := &countingBuilder{config: config}
		e := NewEngine(EngineConfig{Workers: workers})
		for pass := 0; pass < 2; pass++ {
			run := e.RunSuite(cb.build, config, "cbp4", benches, budget)
			for i := range benches {
				if run.Results[i] != ref.Results[i] {
					t.Errorf("workers=%d pass %d %s: pooled %+v != %+v",
						workers, pass, benches[i].Name, run.Results[i], ref.Results[i])
				}
			}
		}
		if n := cb.count(); n < 1 || n > workers {
			t.Errorf("workers=%d: %d items over two passes built %d predictors, want 1..%d",
				workers, 2*len(benches), n, workers)
		}
		if n := len(freeList(e, config)); n != cb.count() {
			t.Errorf("workers=%d: the pool holds %d of the %d predictors built", workers, n, cb.count())
		}
	}
}

// TestPredictorPoolDropsCorruptRestore: a predictor a corrupt snapshot
// failed to restore into is dropped, and the resume falls back to a
// shorter prefix on another predictor.
func TestPredictorPoolDropsCorruptRestore(t *testing.T) {
	const config = "gshare"
	b := workload.CBP4()[0]
	benches := []workload.Benchmark{b}
	cb := &countingBuilder{config: config}
	e := NewEngine(EngineConfig{Workers: 1, ExactShards: true, CacheDir: t.TempDir()})
	e.RunSuite(cb.build, config, "cbp4", benches, 6000)
	if cb.count() != 1 {
		t.Fatalf("one item built %d predictors", cb.count())
	}
	// A payload of another configuration frames and decodes its header
	// fine; gshare's RestoreSnapshot then fails part-way through.
	group := SnapKey{Engine: EngineVersion, Config: config, Suite: "cbp4", Trace: b.Name, Seed: b.Seed, Pos: 9000}
	other := encodeSimState(Result{}, predictor.MustNew("bimodal").(snap.Snapshotter), 0)
	if err := e.store.SaveSnapshot(group, other); err != nil {
		t.Fatal(err)
	}

	got := e.RunSuite(cb.build, config, "cbp4", benches, 12000)
	if st := e.Stats(); st.Resumed != 1 {
		t.Errorf("stats %+v, want the 12000 run resumed from the 6000 snapshot", st)
	}
	if cb.count() != 2 {
		t.Errorf("built %d predictors, want a second one after the corrupt restore", cb.count())
	}
	if free := freeList(e, config); len(free) != 1 || free[0] == cb.built[0] {
		t.Errorf("pool after the corrupt restore holds %d predictors; the one the restore failed on must not be among them", len(free))
	}
	cold := NewEngine(EngineConfig{}).RunSuite(builderFor(config), config, "cbp4", benches, 12000)
	if got.Results[0] != cold.Results[0] {
		t.Errorf("resumed %+v != cold %+v", got.Results[0], cold.Results[0])
	}
}

// TestPredictorPoolReusesCanceledChain: an exact chain stopped at a
// canceled boundary hands its predictor back, and the runs after it —
// a fresh item reset from it and the chain's own resume into it — match
// cold runs without building another predictor.
func TestPredictorPoolReusesCanceledChain(t *testing.T) {
	const config, budget, shards = "tage-gsc+imli", 12000, 4
	benches := workload.CBP4()[:2]
	cb := &countingBuilder{config: config}
	e := NewEngine(EngineConfig{Workers: 1, Shards: shards, ExactShards: true, CacheDir: t.TempDir()})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := e.RunSuiteContext(ctx, cb.build, config, "cbp4", benches[:1], budget, func(ev ItemEvent) {
		if ev.Done == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	if free := freeList(e, config); len(free) != 1 || free[0] != cb.built[0] {
		t.Fatalf("pool after the canceled chain holds %d predictors, want its one", len(free))
	}

	// benches[1] starts from a pristine reset of the canceled chain's
	// predictor; benches[0] resumes into it from the last boundary.
	for _, bs := range [][]workload.Benchmark{benches[1:], benches[:1]} {
		got := e.RunSuite(cb.build, config, "cbp4", bs, budget)
		cold := NewEngine(EngineConfig{}).RunSuite(builderFor(config), config, "cbp4", bs, budget)
		if got.Results[0] != cold.Results[0] {
			t.Errorf("%s after the canceled chain: %+v != cold %+v", bs[0].Name, got.Results[0], cold.Results[0])
		}
	}
	if st := e.Stats(); st.Resumed != 1 {
		t.Errorf("stats %+v, want the canceled chain resumed once", st)
	}
	if cb.count() != 1 {
		t.Errorf("built %d predictors, want the canceled chain's one reused throughout", cb.count())
	}
}

// TestRunItemAllocBudget is the per-item allocation gate for a
// steady-state unsharded gshare item of ~2K records, in two traffic
// orders. Ascending: each trace's budget rises item by item, so the
// stream cache declines every request and the item neither builds a
// predictor nor materializes a stream. Building one costs a 64 KB
// table and materializing ~25 KB, so an item that does either busts
// the 16 KB budget. Fleet: once each trace's stream is resident at
// budget 2099, items at budgets 2000–2099 out of order, as fleet jobs
// ask for them, are served from it and generate nothing; they are held
// to 1 KB.
func TestRunItemAllocBudget(t *testing.T) {
	const items = 200
	benches := workload.CBP4()
	for _, tc := range []struct {
		name            string
		warm            int
		budget          func(i int) int
		maxBytesPerItem uint64
	}{
		{"ascending", 50, func(i int) int { return 2000 + i/len(benches) }, 16 << 10},
		// The warm-up asks for each trace at 2099, then 2098: the second
		// request materializes the stream at the longest budget asked.
		// Then job i/40 asks for every trace at one budget, stride 37
		// over the 100 budgets taking them out of order.
		{"fleet", 2 * len(benches), func(i int) int {
			if job := i / len(benches); job >= 2 {
				return 2000 + job*37%100
			}
			return 2099 - i/len(benches)
		}, 1 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(EngineConfig{Workers: 1})
			ctx := context.Background()
			run := func(i int) {
				b := benches[i%len(benches)]
				if _, err := e.RunItem(ctx, e.item("gshare", "cbp4", b, tc.budget(i), 0)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < tc.warm; i++ {
				run(i)
			}
			generated := e.Streams().Stats().Generated
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := tc.warm; i < tc.warm+items; i++ {
				run(i)
			}
			runtime.ReadMemStats(&after)
			perItem := (after.TotalAlloc - before.TotalAlloc) / items
			t.Logf("%d B and %.1f allocs per item", perItem, float64(after.Mallocs-before.Mallocs)/items)
			if perItem > tc.maxBytesPerItem {
				t.Errorf("a steady-state item allocates %d B, budget %d B", perItem, tc.maxBytesPerItem)
			}
			if g := e.Streams().Stats().Generated; g != generated {
				t.Errorf("steady-state items materialized %d streams, want none", g-generated)
			}
		})
	}
}
