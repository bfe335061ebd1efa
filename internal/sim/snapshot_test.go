package sim

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/predictor"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// materialize returns the first records of a benchmark's deterministic
// stream.
func materialize(t *testing.T, name string, budget int) []trace.Record {
	t.Helper()
	b, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	b.Generate(budget, func(r trace.Record) { recs = append(recs, r) })
	return recs
}

// trainOne feeds one record to a predictor the way the simulator does,
// returning the prediction for conditional records.
func trainOne(p predictor.Predictor, r trace.Record) (pred, conditional bool) {
	if !r.Conditional() {
		p.TrackOther(r.PC, r.Target, r.Kind, r.Taken)
		return false, false
	}
	pred = p.Predict(r.PC)
	p.Train(r.PC, r.Target, r.Taken)
	return pred, true
}

// TestSnapshotRestoreEveryRegistryConfig is the table-driven snapshot
// property test over the full registry (the mpki-golden harness's
// benchmark selection): simulate a stream prefix, snapshot, restore
// into a fresh instance, and require the continuation to be
// prediction-for-prediction identical to the uninterrupted run —
// ending in byte-identical state.
func TestSnapshotRestoreEveryRegistryConfig(t *testing.T) {
	const split, cont = 6000, 4000
	benches := []string{"SPEC2K6-12", "MM-4"}
	configs := predictor.Names()
	sort.Strings(configs)
	for _, bench := range benches {
		recs := materialize(t, bench, split+cont)
		if len(recs) < split+cont {
			t.Fatalf("%s: stream too short (%d records)", bench, len(recs))
		}
		for _, cfg := range configs {
			p1 := predictor.MustNew(cfg)
			s1, ok := p1.(predictor.Snapshotter)
			if !ok {
				t.Errorf("%s does not implement Snapshotter", cfg)
				continue
			}
			for _, r := range recs[:split] {
				trainOne(p1, r)
			}
			enc := snap.NewEncoder()
			s1.Snapshot(enc)

			p2 := predictor.MustNew(cfg)
			if err := p2.(predictor.Snapshotter).RestoreSnapshot(snap.NewDecoder(enc.Bytes())); err != nil {
				t.Errorf("%s/%s: restore: %v", cfg, bench, err)
				continue
			}
			diverged := false
			for i, r := range recs[split : split+cont] {
				g1, c1 := trainOne(p1, r)
				g2, c2 := trainOne(p2, r)
				if g1 != g2 || c1 != c2 {
					t.Errorf("%s/%s: prediction diverged at continuation record %d", cfg, bench, i)
					diverged = true
					break
				}
			}
			if diverged {
				continue
			}
			f1, f2 := snap.NewEncoder(), snap.NewEncoder()
			s1.Snapshot(f1)
			p2.(predictor.Snapshotter).Snapshot(f2)
			if string(f1.Bytes()) != string(f2.Bytes()) {
				t.Errorf("%s/%s: final states differ after identical continuation", cfg, bench)
			}
		}
	}
}

// TestSnapshotRejectsWrongConfig: a snapshot taken by one configuration
// must not restore into a structurally different one.
func TestSnapshotRejectsWrongConfig(t *testing.T) {
	enc := snap.NewEncoder()
	predictor.MustNew("tage-gsc+imli").(predictor.Snapshotter).Snapshot(enc)
	for _, other := range []string{"tage-gsc", "gehl+imli", "tage-sc-l+imli", "gshare"} {
		if err := predictor.MustNew(other).(predictor.Snapshotter).RestoreSnapshot(snap.NewDecoder(enc.Bytes())); err == nil {
			t.Errorf("tage-gsc+imli snapshot restored into %s without error", other)
		}
	}
}

// TestStoreSnapshotRoundTrip exercises the snapshot side of the store:
// save/load framing, key verification, position listing, idempotence.
func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := OpenStore(t.TempDir())
	k := SnapKey{Engine: EngineVersion, Config: "tage-gsc", Suite: "cbp4", Trace: "MM-4", Seed: 7, Pos: 25040}
	if _, ok := s.LoadSnapshot(k); ok {
		t.Fatal("empty store returned a snapshot")
	}
	payload := []byte{1, 2, 3, 4, 5}
	if err := s.SaveSnapshot(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadSnapshot(k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("LoadSnapshot = %v, %v", got, ok)
	}
	if !s.HasSnapshot(k) {
		t.Error("HasSnapshot false for a saved snapshot")
	}

	k2 := k
	k2.Pos = 50080
	if err := s.SaveSnapshot(k2, payload); err != nil {
		t.Fatal(err)
	}
	otherConfig := k
	otherConfig.Config = "gehl"
	otherConfig.Pos = 99999
	if err := s.SaveSnapshot(otherConfig, payload); err != nil {
		t.Fatal(err)
	}
	pos := s.SnapshotPositions(k)
	if len(pos) != 2 || pos[0] != 50080 || pos[1] != 25040 {
		t.Errorf("SnapshotPositions = %v, want [50080 25040] (descending, this config only)", pos)
	}

	// A corrupt file must read as a miss, not an error.
	if err := os.WriteFile(s.snapPath(k), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadSnapshot(k); ok {
		t.Error("corrupt snapshot served as a hit")
	}
}

// TestStorePrune: entries from stale engine versions — results,
// snapshots, and the pre-versioned flat layout — are removed, and so
// are spilled streams of every version; current-version entries
// survive.
func TestStorePrune(t *testing.T) {
	dir := t.TempDir()
	s := OpenStore(dir)

	cur := testKey()
	if err := s.Save(cur, Result{Trace: "MM-4", Mispredicted: 1}); err != nil {
		t.Fatal(err)
	}
	curSnap := SnapKey{Engine: EngineVersion, Config: "c", Suite: "cbp4", Trace: "MM-4", Seed: 1, Pos: 100}
	if err := s.SaveSnapshot(curSnap, []byte("x")); err != nil {
		t.Fatal(err)
	}
	stale := testKey()
	stale.Engine = EngineVersion - 1
	if err := s.Save(stale, Result{Trace: "MM-4"}); err != nil {
		t.Fatal(err)
	}
	// Legacy flat fan-out from engine versions ≤ 2: a 2-hex directory
	// holding <62-hex>.json entries.
	legacyID := testKey().id()
	if err := os.MkdirAll(filepath.Join(dir, legacyID[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, legacyID[:2], legacyID[2:]+".json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An unrelated two-hex-named directory with foreign content must
	// survive: a name alone is not proof the store owns it.
	if err := os.MkdirAll(filepath.Join(dir, "db"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "db", "users.sqlite"), []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Stream spills left by older engines: no version reads them.
	for _, v := range []int{EngineVersion - 1, EngineVersion} {
		p := filepath.Join(dir, "streams", versionDir(v))
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(p, "s.imlt"), []byte("stream"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := s.Prune(EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 4 || st.Dirs != 4 {
		t.Errorf("prune stats = %+v, want 4 files in 4 dirs", st)
	}
	if st.Bytes == 0 {
		t.Error("prune reported zero bytes removed")
	}
	if _, ok := s.Load(cur); !ok {
		t.Error("current-version result was pruned")
	}
	if _, ok := s.LoadSnapshot(curSnap); !ok {
		t.Error("current-version snapshot was pruned")
	}
	for _, gone := range []string{
		filepath.Join(dir, versionDir(EngineVersion-1)),
		filepath.Join(dir, legacyID[:2]),
		filepath.Join(dir, "streams"),
	} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("%s survived the prune", gone)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "db", "users.sqlite")); err != nil {
		t.Error("prune deleted an unrelated two-hex-named directory")
	}
}
