package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/workload"
)

// noTempFiles fails the test if a .tmp-* file is left in dir.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left in %s", e.Name(), dir)
		}
	}
}

// sameFiles reports, for each position after the first, whether its
// snapshot name is the same file as the first position's.
func sameFiles(t *testing.T, s *Store, group SnapKey, pos []int) []bool {
	t.Helper()
	k := group
	k.Pos = pos[0]
	first, err := os.Stat(s.snapPath(k))
	if err != nil {
		t.Fatal(err)
	}
	var out []bool
	for _, p := range pos[1:] {
		k.Pos = p
		info, err := os.Stat(s.snapPath(k))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, os.SameFile(first, info))
	}
	return out
}

// TestExactChainSavesOnePack: an exact chain's boundary snapshots are
// one pack file, linked under every position's name, with no temp file
// left behind, and each position loads its own payload.
func TestExactChainSavesOnePack(t *testing.T) {
	const config, budget, shards = "gshare", 9000, 3
	b := workload.CBP4()[0]
	dir := t.TempDir()
	NewEngine(EngineConfig{Shards: shards, ExactShards: true, Store: OpenStore(dir)}).
		RunSuite(builderFor(config), config, "cbp4", []workload.Benchmark{b}, budget)

	s := OpenStore(dir)
	group := SnapKey{Engine: EngineVersion, Config: config, Suite: "cbp4", Trace: b.Name, Seed: b.Seed}
	pos := s.SnapshotPositions(group)
	if len(pos) != shards {
		t.Fatalf("snapshot positions %v, want %d boundaries", pos, shards)
	}
	for i, same := range sameFiles(t, s, group, pos) {
		if !same {
			t.Errorf("position %d is not a link to the pack of position %d", pos[i+1], pos[0])
		}
	}
	noTempFiles(t, s.snapGroupDir(group))
	payloads := map[string]int{}
	for _, p := range pos {
		k := group
		k.Pos = p
		payload, ok := s.LoadSnapshot(k)
		if !ok {
			t.Fatalf("position %d does not load from the pack", p)
		}
		payloads[string(payload)] = p
	}
	if len(payloads) != shards {
		t.Errorf("%d distinct payloads for %d positions", len(payloads), shards)
	}
}

// TestSaveSnapshotsLinkFallback: a position whose link fails is saved
// as a file of its own, every position still loads its payload, and
// the temp pack name is gone.
func TestSaveSnapshotsLinkFallback(t *testing.T) {
	defer faultinject.Disable()
	s := OpenStore(t.TempDir())
	group := SnapKey{Engine: EngineVersion, Config: "c", Suite: "s", Trace: "t", Seed: 1}
	entries := []SnapEntry{{Pos: 100, Payload: []byte("a")}, {Pos: 200, Payload: []byte("bb")}, {Pos: 300, Payload: []byte("ccc")}}
	faultinject.Enable(faultinject.Plan{"sim/store.link": {Nth: []int{2}}})
	if err := s.SaveSnapshots(group, entries); err != nil {
		t.Fatal(err)
	}
	faultinject.Disable()
	if got, want := sameFiles(t, s, group, []int{100, 200, 300}), []bool{false, true}; got[0] != want[0] || got[1] != want[1] {
		t.Errorf("position 200 shares the pack: %v, want %v (only the failed link stands alone)", got, want)
	}
	for _, en := range entries {
		k := group
		k.Pos = en.Pos
		if got, ok := s.LoadSnapshot(k); !ok || string(got) != string(en.Payload) {
			t.Errorf("position %d loaded %q, %v; want %q", en.Pos, got, ok, en.Payload)
		}
	}
	noTempFiles(t, s.snapGroupDir(group))

	// With every link failing the pack is never reachable, and its
	// temp name still goes.
	other := group
	other.Trace = "u"
	faultinject.Enable(faultinject.Plan{"sim/store.link": {Every: 1}})
	if err := s.SaveSnapshots(other, entries); err != nil {
		t.Fatal(err)
	}
	faultinject.Disable()
	if got := sameFiles(t, s, other, []int{100, 200, 300}); got[0] || got[1] {
		t.Errorf("positions share a file although every link failed: %v", got)
	}
	noTempFiles(t, s.snapGroupDir(other))
}

// TestStorePruneCountsPackOnce: pruning a stale pack linked under three
// names counts three entries but the pack's bytes once.
func TestStorePruneCountsPackOnce(t *testing.T) {
	s := OpenStore(t.TempDir())
	group := SnapKey{Engine: EngineVersion - 1, Config: "c", Suite: "s", Trace: "t", Seed: 1}
	entries := []SnapEntry{{Pos: 1, Payload: make([]byte, 1000)}, {Pos: 2, Payload: make([]byte, 1000)}, {Pos: 3, Payload: make([]byte, 1000)}}
	if err := s.SaveSnapshots(group, entries); err != nil {
		t.Fatal(err)
	}
	k := group
	k.Pos = 1
	info, err := os.Stat(s.snapPath(k))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Prune(EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 3 || st.Bytes != info.Size() || st.Dirs != 1 {
		t.Errorf("prune stats %+v, want 3 files, %d bytes (one pack), 1 dir", st, info.Size())
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), versionDir(EngineVersion-1))); !os.IsNotExist(err) {
		t.Errorf("stale version tree survived the prune: %v", err)
	}
}
