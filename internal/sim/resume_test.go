package sim

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/snap"
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
// Snapshots and for an ExactShards chain whose final snapshot is
// poisoned. The fallback still counts as a resume, and results stay
// those of a cold run. The poisoned file is quarantined to <path>.bad,
// so the next run that reaches its position leaves a snapshot there
// that decodes.
func TestResumeSkipsUndecodableSnapshot(t *testing.T) {
	const config = "gshare"
	b := workload.CBP4()[0]
	benches := []workload.Benchmark{b}
	at := func(pos int) SnapKey {
		return SnapKey{Engine: EngineVersion, Config: config, Suite: "cbp4", Trace: b.Name, Seed: b.Seed, Pos: pos}
	}
	poison := func(t *testing.T, st *Store, pos int) {
		t.Helper()
		if err := st.SaveSnapshot(at(pos), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, e *Engine, got SuiteRun, budget, fallback int) {
		t.Helper()
		st := e.Stats()
		if st.Resumed != 1 {
			t.Errorf("resumed %d runs, want 1", st.Resumed)
		}
		if want := uint64(streamLen(b, budget) - fallback); st.RecordsSimulated != want {
			t.Errorf("fed %d records, want %d (resume from position %d)", st.RecordsSimulated, want, fallback)
		}
		cold := NewEngine(EngineConfig{}).RunSuite(builderFor(config), config, "cbp4", benches, budget)
		if got.Results[0] != cold.Results[0] {
			t.Errorf("%+v != cold %+v", got.Results[0], cold.Results[0])
		}
	}
	rewritten := func(t *testing.T, st *Store, pos int) {
		t.Helper()
		if _, err := os.Stat(st.snapPath(at(pos)) + ".bad"); err != nil {
			t.Errorf("undecodable snapshot at %d not quarantined: %v", pos, err)
		}
		payload, ok := st.LoadSnapshot(at(pos))
		if !ok {
			t.Fatalf("no snapshot at %d after a run reached it", pos)
		}
		if _, err := decodeSimState(payload, builderFor(config)().(snap.Snapshotter)); err != nil {
			t.Errorf("snapshot at %d still does not decode: %v", pos, err)
		}
	}

	t.Run("snapshots", func(t *testing.T) {
		dir := t.TempDir()
		cfg := EngineConfig{Snapshots: true, CacheDir: dir}
		NewEngine(cfg).RunSuite(builderFor(config), config, "cbp4", benches, 6000)
		NewEngine(cfg).RunSuite(builderFor(config), config, "cbp4", benches, 12000)
		st := OpenStore(dir)
		pos := st.SnapshotPositions(at(0))
		if len(pos) != 2 {
			t.Fatalf("snapshot positions %v, want two prefixes", pos)
		}
		poison(t, st, pos[0])

		e := NewEngine(cfg)
		got := e.RunSuite(builderFor(config), config, "cbp4", benches, 20000)
		check(t, e, got, 20000, pos[1])

		// Without its result entry, the 12000-budget run reaches the
		// poisoned position again.
		if err := os.Remove(st.path(e.item(config, "cbp4", b, 12000, 0).key())); err != nil {
			t.Fatal(err)
		}
		NewEngine(cfg).RunSuite(builderFor(config), config, "cbp4", benches, 12000)
		rewritten(t, st, pos[0])
	})

	t.Run("exact-shards", func(t *testing.T) {
		dir := t.TempDir()
		// The stream does not overshoot this budget, so the chain's final
		// snapshot lies within it and is the first a re-run tries.
		const budget, shards = 9000, 3
		cfg := EngineConfig{Shards: shards, ExactShards: true, CacheDir: dir}
		NewEngine(cfg).RunSuite(builderFor(config), config, "cbp4", benches, budget)
		st := OpenStore(dir)
		if pos := st.SnapshotPositions(at(0)); len(pos) != shards || pos[0] != budget {
			t.Fatalf("snapshot positions %v, want %d boundaries ending at %d", pos, shards, budget)
		}
		// Drop the chain's entry and poison its final snapshot: the
		// re-run must resume from the last interior boundary.
		e := NewEngine(cfg)
		if err := os.Remove(st.path(e.item(config, "cbp4", b, budget, 0).key())); err != nil {
			t.Fatal(err)
		}
		poison(t, st, budget)

		got := e.RunSuite(builderFor(config), config, "cbp4", benches, budget)
		if got.CachedShards != 0 || got.RanShards != shards {
			t.Errorf("re-run %d ran / %d cached, want all %d ran", got.RanShards, got.CachedShards, shards)
		}
		check(t, e, got, budget, workload.ShardStart(budget, shards-1, shards))
		rewritten(t, st, budget)
	})
}

// TestExactChainCancelResumes: an exact chain canceled mid-way stores
// no result but keeps the boundary snapshots it crossed, so a fresh
// engine resumes from the last one and matches a cold run.
func TestExactChainCancelResumes(t *testing.T) {
	const config, budget, shards = "tage-gsc+imli", 12000, 4
	b := workload.CBP4()[0]
	benches := []workload.Benchmark{b}
	cfg := EngineConfig{Shards: shards, ExactShards: true, CacheDir: t.TempDir()}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := NewEngine(cfg).RunSuiteContext(ctx, builderFor(config), config, "cbp4", benches, budget,
		func(ev ItemEvent) {
			if ev.Done == 2 {
				cancel()
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	last := workload.ShardStart(budget, 2, shards)
	group := SnapKey{Engine: EngineVersion, Config: config, Suite: "cbp4", Trace: b.Name, Seed: b.Seed}
	if pos := OpenStore(cfg.CacheDir).SnapshotPositions(group); !slices.Equal(pos, []int{last, workload.ShardStart(budget, 1, shards)}) {
		t.Fatalf("snapshot positions %v after canceling at shard 2 of %d", pos, shards)
	}

	e := NewEngine(cfg)
	got := e.RunSuite(builderFor(config), config, "cbp4", benches, budget)
	st := e.Stats()
	if st.Resumed != 1 || st.CacheHits != 0 {
		t.Errorf("re-run stats %+v, want one resume and no cache hit", st)
	}
	if want := uint64(streamLen(b, budget) - last); st.RecordsSimulated != want {
		t.Errorf("re-run fed %d records, want %d (resume from %d)", st.RecordsSimulated, want, last)
	}
	cold := NewEngine(EngineConfig{}).RunSuite(builderFor(config), config, "cbp4", benches, budget)
	if got.Results[0] != cold.Results[0] {
		t.Errorf("resumed chain %+v != cold %+v", got.Results[0], cold.Results[0])
	}
}

// TestExactSweepResumesAcrossBudgets: an ascending exact budget sweep
// over one store feeds each benchmark's max-budget stream exactly once
// (every budget after the first resumes from the previous chain's end),
// keeps one result entry per chain, and matches unsharded cold runs at
// every budget.
func TestExactSweepResumesAcrossBudgets(t *testing.T) {
	const config, shards = "tage-gsc+imli", 3
	benches := workload.CBP4()[:2]
	budgets := []int{4000, 8000, 12000}
	dir := t.TempDir()
	e := NewEngine(EngineConfig{Shards: shards, ExactShards: true, CacheDir: dir})
	for _, budget := range budgets {
		got := e.RunSuite(builderFor(config), config, "cbp4", benches, budget)
		cold := NewEngine(EngineConfig{}).RunSuite(builderFor(config), config, "cbp4", benches, budget)
		for i := range benches {
			if got.Results[i] != cold.Results[i] {
				t.Errorf("budget %d %s: exact %+v != cold %+v", budget, benches[i].Name, got.Results[i], cold.Results[i])
			}
		}
	}

	st := e.Stats()
	var fed uint64
	for _, b := range benches {
		fed += uint64(streamLen(b, budgets[len(budgets)-1]))
	}
	if st.RecordsSimulated != fed {
		t.Errorf("sweep fed %d records, want the max-budget streams' %d", st.RecordsSimulated, fed)
	}
	if want := uint64(len(benches) * (len(budgets) - 1)); st.Resumed != want {
		t.Errorf("resumed %d chains, want %d", st.Resumed, want)
	}
	entries := 0
	err := filepath.WalkDir(filepath.Join(dir, versionDir(EngineVersion)), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			entries++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(benches) * len(budgets); entries != want {
		t.Errorf("store holds %d result entries, want one per chain (%d)", entries, want)
	}
}

// streamLen is the length of b's stream at budget, overshoot included.
func streamLen(b workload.Benchmark, budget int) int {
	n := 0
	b.Generate(budget, func(trace.Record) { n++ })
	return n
}
