package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/predictor"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FuzzLoadSnapshot writes arbitrary bytes at a <pos>.snap path. The
// load must never panic: it either misses and quarantines the name, or
// returns a payload that lies inside the file.
func FuzzLoadSnapshot(f *testing.F) {
	group := SnapKey{Engine: EngineVersion, Config: "tage-sc-l+imli", Suite: "cbp4", Trace: "MM-4", Seed: 1}
	const pos = 2000
	f.Add(encodePack(group, []SnapEntry{{Pos: pos, Payload: []byte("state at 2000")}}))
	f.Add(encodePack(group, []SnapEntry{
		{Pos: 1000, Payload: []byte("first")}, {Pos: pos, Payload: []byte("second")}, {Pos: 3000, Payload: []byte("third")},
	}))
	f.Add(encodePack(group, []SnapEntry{{Pos: 1000, Payload: []byte("not this position")}}))
	f.Add([]byte(snapMagic))
	f.Add([]byte{})

	s := OpenStore(f.TempDir())
	k := group
	k.Pos = pos
	path := s.snapPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, ok := s.LoadSnapshot(k)
		if !ok {
			if _, err := os.Stat(path); err == nil {
				t.Fatal("a file that did not load is still addressable")
			}
			return
		}
		if !bytes.Contains(data, payload) {
			t.Fatalf("loaded a %d-byte payload that is not inside the %d-byte file", len(payload), len(data))
		}
	})
}

// FuzzDecodeSimState restores arbitrary payloads into freshly built
// tage-sc-l+imli and gehl+imli predictors; decoding must fail with an
// error, never panic.
func FuzzDecodeSimState(f *testing.F) {
	configs := []string{"tage-sc-l+imli", "gehl+imli"}
	b, err := workload.ByName("MM-4")
	if err != nil {
		f.Fatal(err)
	}
	for _, cfg := range configs {
		p := predictor.MustNew(cfg)
		res := Feed(p, b.Name, func(emit func(trace.Record)) { b.Generate(2000, emit) })
		f.Add(encodeSimState(res, p.(snap.Snapshotter), 0))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, cfg := range configs {
			_, _ = decodeSimState(payload, predictor.MustNew(cfg).(snap.Snapshotter))
		}
	})
}
