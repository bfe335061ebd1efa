package predictor

import (
	"bytes"
	"testing"

	"repro/internal/num"
	"repro/internal/snap"
	"repro/internal/trace"
)

// snapshotBytes serializes a composite's full state for byte-exact
// comparison.
func snapshotBytes(t *testing.T, c *Composite) []byte {
	t.Helper()
	enc := snap.NewEncoder()
	c.Snapshot(enc)
	return enc.Bytes()
}

// TestStagedMatchesReference is the property test gating the staged
// pipeline (same harness shape as hist's FoldedBank-vs-reference
// test): for every composite registry config, two instances driven
// over the same random stream — one through the staged Predict/Train,
// which are literally the stage calls plus TrainTables and SpecPush,
// one through the monolithic Reference path — must agree on every
// prediction and end in byte-identical snapshots, with speculative
// checkpoint/restore excursions mixed in.
func TestStagedMatchesReference(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(*Composite); !ok {
			continue // registry adapters without a staged path
		}
		t.Run(name, func(t *testing.T) {
			staged := MustNew(name).(*Composite)
			ref := MustNew(name).(*Composite)
			rng := num.NewRand(0xbead + uint64(len(name)))
			pcs := make([]uint64, 24)
			for i := range pcs {
				pcs[i] = 0x4000 + uint64(rng.Intn(1<<14))*4
			}
			const records = 4000
			for i := 0; i < records; i++ {
				pc := pcs[rng.Intn(len(pcs))]
				target := pc + 64
				if rng.Intn(4) == 0 {
					target = pc - uint64(rng.Intn(512))*4
				}
				taken := rng.Intn(7) != 0
				if rng.Intn(6) == 0 {
					// Non-conditional control flow.
					staged.TrackOther(pc, target, trace.UncondDirect, true)
					ref.TrackOther(pc, target, trace.UncondDirect, true)
					continue
				}
				ps := staged.Predict(pc)
				pr := ref.PredictReference(pc)
				if ps != pr {
					t.Fatalf("record %d (pc %#x): staged=%v reference=%v", i, pc, ps, pr)
				}
				staged.Train(pc, target, taken)
				ref.TrainReference(pc, target, taken)

				if i%700 == 699 {
					// Speculative excursion: checkpoint, run a few
					// wrong-path branches with speculative outcomes,
					// restore — identically on both instances.
					ckS, ckR := staged.SpecCheckpoint(), ref.SpecCheckpoint()
					for j := 0; j < 5; j++ {
						wpc := pcs[rng.Intn(len(pcs))]
						spec := rng.Bool()
						staged.Predict(wpc)
						staged.SpecPush(wpc, wpc+32, spec)
						ref.PredictReference(wpc)
						ref.SpecPush(wpc, wpc+32, spec)
					}
					staged.SpecRestore(ckS)
					ref.SpecRestore(ckR)
				}
			}
			bs, br := snapshotBytes(t, staged), snapshotBytes(t, ref)
			if !bytes.Equal(bs, br) {
				t.Errorf("staged snapshot differs from reference (%d vs %d bytes)", len(bs), len(br))
			}
		})
	}
}
