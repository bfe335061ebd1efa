package sim

import (
	"os"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestResumeBitIdentical: with the snapshot layer on, a longer-budget
// run resumed from a shorter run's end snapshot must produce results
// bit-identical to a cold run of the longer budget — on both data
// paths (materialized stream and callback regeneration).
func TestResumeBitIdentical(t *testing.T) {
	benches := workload.CBP4()[:2]
	const small, large = 8000, 20000
	for _, streamMem := range []int64{0, -1} {
		dir := t.TempDir()
		warm := NewEngine(EngineConfig{Snapshots: true, CacheDir: dir, StreamMemory: streamMem})
		warm.RunSuite(builderFor("tage-gsc+imli"), "tage-gsc+imli", "cbp4", benches, small)
		if st := warm.Stats(); st.Resumed != 0 {
			t.Fatalf("streamMem=%d: first run resumed from nothing: %+v", streamMem, st)
		}

		resumed := NewEngine(EngineConfig{Snapshots: true, CacheDir: dir, StreamMemory: streamMem})
		got := resumed.RunSuite(builderFor("tage-gsc+imli"), "tage-gsc+imli", "cbp4", benches, large)
		st := resumed.Stats()
		if st.Resumed != uint64(len(benches)) {
			t.Errorf("streamMem=%d: resumed %d of %d runs", streamMem, st.Resumed, len(benches))
		}
		// Resume must cut the work roughly to the budget delta.
		if st.RecordsSimulated > uint64(len(benches))*(large-small)+2000 {
			t.Errorf("streamMem=%d: resumed run fed %d records, want ≈%d",
				streamMem, st.RecordsSimulated, len(benches)*(large-small))
		}

		cold := NewEngine(EngineConfig{StreamMemory: streamMem}).
			RunSuite(builderFor("tage-gsc+imli"), "tage-gsc+imli", "cbp4", benches, large)
		for i := range got.Results {
			if got.Results[i] != cold.Results[i] {
				t.Errorf("streamMem=%d %s: resumed %+v != cold %+v",
					streamMem, got.Results[i].Trace, got.Results[i], cold.Results[i])
			}
		}
	}
}

// TestResumeIgnoresLongerSnapshots: a snapshot past the requested
// budget must not be used (a shorter run cannot un-simulate records).
func TestResumeIgnoresLongerSnapshots(t *testing.T) {
	benches := workload.CBP4()[:1]
	dir := t.TempDir()
	e1 := NewEngine(EngineConfig{Snapshots: true, CacheDir: dir})
	e1.RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 20000)

	e2 := NewEngine(EngineConfig{Snapshots: true, CacheDir: dir})
	got := e2.RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 6000)
	if st := e2.Stats(); st.Resumed != 0 {
		t.Errorf("shorter run resumed from a longer snapshot: %+v", st)
	}
	cold := NewEngine(EngineConfig{}).RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 6000)
	if got.Results[0] != cold.Results[0] {
		t.Errorf("shorter run diverged: %+v != %+v", got.Results[0], cold.Results[0])
	}
}

// TestBudgetSweepResumeWork pins the acceptance target of the snapshot
// layer: an ascending budget sweep (25K→200K) with resume does at most
// ~max(budget) simulation work where cold runs pay sum(budgets) —
// at least 1.5× less, measured in records actually fed to predictors.
func TestBudgetSweepResumeWork(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	bench := workload.CBP4()[:1]
	budgets := []int{25000, 50000, 100000, 200000}
	const config = "tage-sc-l+imli"

	cold := NewEngine(EngineConfig{})
	for _, budget := range budgets {
		cold.RunSuite(builderFor(config), config, "cbp4", bench, budget)
	}
	resume := NewEngine(EngineConfig{Snapshots: true, CacheDir: t.TempDir()})
	for _, budget := range budgets {
		resume.RunSuite(builderFor(config), config, "cbp4", bench, budget)
	}

	coldWork := cold.Stats().RecordsSimulated
	resumeWork := resume.Stats().RecordsSimulated
	if resumeWork == 0 {
		t.Fatal("no work recorded")
	}
	if ratio := float64(coldWork) / float64(resumeWork); ratio < 1.5 {
		t.Errorf("budget sweep work ratio = %.2f (cold %d / resume %d records), want ≥ 1.5",
			ratio, coldWork, resumeWork)
	}
	if got := resume.Stats().Resumed; got != uint64(len(budgets)-1) {
		t.Errorf("resumed %d runs, want %d", got, len(budgets)-1)
	}
}

// TestExactShardsBitIdentical: the exact sharding mode must merge to
// misprediction counts bit-identical to the unsharded run — the
// property that retires the DESIGN.md §5 tolerance — with and without
// a store, and on both data paths.
func TestExactShardsBitIdentical(t *testing.T) {
	benches := workload.CBP4()[:3]
	const budget = 20000
	un := NewEngine(EngineConfig{}).RunSuite(builderFor("tage-gsc+imli"), "tage-gsc+imli", "cbp4", benches, budget)

	for _, tc := range []struct {
		name string
		cfg  EngineConfig
	}{
		{"memory-chained", EngineConfig{Shards: 4, ExactShards: true}},
		{"with-store", EngineConfig{Shards: 4, ExactShards: true, CacheDir: t.TempDir()}},
		{"callback-path", EngineConfig{Shards: 4, ExactShards: true, StreamMemory: -1}},
	} {
		ex := NewEngine(tc.cfg).RunSuite(builderFor("tage-gsc+imli"), "tage-gsc+imli", "cbp4", benches, budget)
		for i := range benches {
			if ex.Results[i] != un.Results[i] {
				t.Errorf("%s %s: exact-sharded %+v != unsharded %+v",
					tc.name, benches[i].Name, ex.Results[i], un.Results[i])
			}
		}
	}
}

// TestExactShardsCachedAndChained: a second engine over the same store
// serves every exact shard from cache; a third engine at a longer
// budget reuses the boundary snapshots to resume.
func TestExactShardsCachedAndChained(t *testing.T) {
	benches := workload.CBP4()[:2]
	const budget = 12000
	dir := t.TempDir()
	cfg := EngineConfig{Shards: 3, ExactShards: true, CacheDir: dir}

	first := NewEngine(cfg)
	run1 := first.RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, budget)
	if run1.CachedShards != 0 || run1.RanShards != 3*len(benches) {
		t.Fatalf("first run accounting: %d ran / %d cached", run1.RanShards, run1.CachedShards)
	}

	second := NewEngine(cfg)
	run2 := second.RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, budget)
	if st := second.Stats(); st.Simulated != 0 || st.CacheHits != uint64(3*len(benches)) {
		t.Fatalf("second run stats = %+v, want all cached", st)
	}
	for i := range run1.Results {
		if run1.Results[i] != run2.Results[i] {
			t.Errorf("%s: cached exact result differs", run1.Results[i].Trace)
		}
	}

	// A longer unsharded run on the same store resumes from the exact
	// chain's final snapshot (whose merged counters cover the prefix).
	longer := NewEngine(EngineConfig{Snapshots: true, CacheDir: dir})
	got := longer.RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 2*budget)
	if st := longer.Stats(); st.Resumed != uint64(len(benches)) {
		t.Errorf("longer run resumed %d of %d", st.Resumed, len(benches))
	}
	cold := NewEngine(EngineConfig{}).RunSuite(builderFor("gshare"), "gshare", "cbp4", benches, 2*budget)
	for i := range got.Results {
		if got.Results[i] != cold.Results[i] {
			t.Errorf("%s: resumed-from-exact %+v != cold %+v",
				got.Results[i].Trace, got.Results[i], cold.Results[i])
		}
	}
}

// TestResumeSkipsUndecodableSnapshot: a snapshot whose file framing is
// valid but whose payload does not decode is a miss, and resume falls
// back to the next shorter cached prefix — for a budget extension under
// Snapshots and for an ExactShards chain restoring a later shard. The
// fallback still counts as a resume, and results stay those of a cold
// run.
func TestResumeSkipsUndecodableSnapshot(t *testing.T) {
	const config = "gshare"
	b := workload.CBP4()[0]
	benches := []workload.Benchmark{b}
	group := SnapKey{Engine: EngineVersion, Config: config, Suite: "cbp4", Trace: b.Name, Seed: b.Seed}
	poison := func(t *testing.T, st *Store, pos int) {
		t.Helper()
		k := group
		k.Pos = pos
		if err := st.SaveSnapshot(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	streamLen := func(budget int) int {
		n := 0
		b.Generate(budget, func(trace.Record) { n++ })
		return n
	}
	check := func(t *testing.T, e *Engine, got SuiteRun, budget, fallback int) {
		t.Helper()
		st := e.Stats()
		if st.Resumed != 1 {
			t.Errorf("resumed %d runs, want 1", st.Resumed)
		}
		if want := uint64(streamLen(budget) - fallback); st.RecordsSimulated != want {
			t.Errorf("fed %d records, want %d (resume from position %d)", st.RecordsSimulated, want, fallback)
		}
		cold := NewEngine(EngineConfig{}).RunSuite(builderFor(config), config, "cbp4", benches, budget)
		if got.Results[0] != cold.Results[0] {
			t.Errorf("%+v != cold %+v", got.Results[0], cold.Results[0])
		}
	}

	t.Run("snapshots", func(t *testing.T) {
		dir := t.TempDir()
		cfg := EngineConfig{Snapshots: true, CacheDir: dir}
		NewEngine(cfg).RunSuite(builderFor(config), config, "cbp4", benches, 6000)
		NewEngine(cfg).RunSuite(builderFor(config), config, "cbp4", benches, 12000)
		st := OpenStore(dir)
		pos := st.SnapshotPositions(group)
		if len(pos) != 2 {
			t.Fatalf("snapshot positions %v, want two prefixes", pos)
		}
		poison(t, st, pos[0])

		e := NewEngine(cfg)
		got := e.RunSuite(builderFor(config), config, "cbp4", benches, 20000)
		check(t, e, got, 20000, pos[1])
	})

	t.Run("exact-shards", func(t *testing.T) {
		dir := t.TempDir()
		const budget, shards = 12000, 3
		cfg := EngineConfig{Shards: shards, ExactShards: true, CacheDir: dir}
		NewEngine(cfg).RunSuite(builderFor(config), config, "cbp4", benches, budget)
		st := OpenStore(dir)
		// Drop the last shard's result and poison the boundary state it
		// would restore from: the chain must replay from the boundary
		// before it.
		if err := os.Remove(st.path(exactKey(config, "cbp4", b, budget, shards-1, shards))); err != nil {
			t.Fatal(err)
		}
		poison(t, st, workload.ShardStart(budget, shards-1, shards))

		e := NewEngine(cfg)
		got := e.RunSuite(builderFor(config), config, "cbp4", benches, budget)
		if got.CachedShards != shards-1 {
			t.Errorf("cached %d shards, want %d", got.CachedShards, shards-1)
		}
		check(t, e, got, budget, workload.ShardStart(budget, shards-2, shards))
	})
}
