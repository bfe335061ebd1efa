package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/predictor"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// snapBytesGolden holds one SHA-256 of encodeSimState per registry
// configuration. The hashes were taken before the codec moved whole
// tables as spans; a codec change that alters a single snapshot byte
// would strand every stored snapshot and fails here instead.
const snapBytesGolden = "snapshot_hashes.json"

// TestSnapshotBytesGolden pins the snapshot encoding: every registry
// configuration runs a seeded 20K-record stream, and the hash of its
// encodeSimState payload must match the golden. Regenerate
// deliberately with: go test ./internal/sim -run SnapshotBytesGolden
// -update
func TestSnapshotBytesGolden(t *testing.T) {
	b, err := workload.ByName("SPEC2K6-12")
	if err != nil {
		t.Fatal(err)
	}
	b = b.Reseeded(3)
	configs := predictor.Names()
	sort.Strings(configs)
	got := map[string]string{}
	for _, cfg := range configs {
		p := predictor.MustNew(cfg)
		sp, ok := p.(snap.Snapshotter)
		if !ok {
			t.Fatalf("%s does not implement Snapshotter", cfg)
		}
		res := Feed(p, b.Name, func(emit func(trace.Record)) { b.Generate(20000, emit) })
		sum := sha256.Sum256(encodeSimState(res, sp, 0))
		got[cfg] = hex.EncodeToString(sum[:])
	}

	path := filepath.Join("testdata", snapBytesGolden)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d hashes", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d configurations, golden has %d", len(got), len(want))
	}
	for cfg, h := range got {
		if want[cfg] != h {
			t.Errorf("%s: snapshot hash %s, golden %s", cfg, h, want[cfg])
		}
	}
}
