package sim

import (
	"bytes"
	"testing"

	"repro/internal/predictor"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestSpecModeString(t *testing.T) {
	if SpecImmediate.String() != "immediate" ||
		SpecCheckpointed.String() != "checkpointed" ||
		SpecUnrepaired.String() != "unrepaired" {
		t.Error("mode names wrong")
	}
	if SpecMode(9).String() != "spec?" {
		t.Error("unknown mode name")
	}
}

// TestCheckpointRepairIsExact is the core §2.3 claim as an executable
// property: speculative history update with checkpoint repair must be
// prediction-for-prediction identical to idealised immediate update,
// and end in the same predictor state, for every composite
// configuration. It also pins the order the one train path relies on:
// the checkpointed mode trains the tables before it pushes the
// predicted direction, so the corrector and GEHL tables recompute the
// indices their Predict used.
func TestCheckpointRepairIsExact(t *testing.T) {
	for _, config := range predictor.Names() {
		if _, ok := predictor.MustNew(config).(*predictor.Composite); !ok {
			continue
		}
		budget := 10000
		if config == "tage-gsc+imli" {
			budget = 30000 // the paper's configuration gets the longer run
		}
		t.Run(config, func(t *testing.T) {
			for _, name := range []string{"SPEC2K6-12", "SPEC2K6-04", "MM-4"} {
				b, err := workload.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				var res [2]Result
				var state [2][]byte
				for i, mode := range []SpecMode{SpecImmediate, SpecCheckpointed} {
					c := predictor.MustNew(config).(*predictor.Composite)
					res[i] = FeedSpeculative(c, mode, name, func(emit func(trace.Record)) { b.Generate(budget, emit) })
					e := snap.NewEncoder()
					c.Snapshot(e)
					state[i] = e.Bytes()
				}
				if res[0].Mispredicted != res[1].Mispredicted {
					t.Errorf("%s: checkpointed speculation diverged from immediate: %d vs %d mispredictions",
						name, res[1].Mispredicted, res[0].Mispredicted)
				}
				if !bytes.Equal(state[0], state[1]) {
					t.Errorf("%s: checkpointed speculation ended in a different predictor state from immediate", name)
				}
			}
		})
	}
}

func TestUnrepairedSpeculationHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	// Without repair, wrong-path history bits corrupt the predictor
	// noticeably (the paper's motivation for checkpointing).
	var immTotal, badTotal uint64
	for _, name := range []string{"SPEC2K6-12", "SPEC2K6-00", "CLIENT02"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		imm, err := RunSpecBenchmark("tage-gsc+imli", SpecImmediate, b, 40000)
		if err != nil {
			t.Fatal(err)
		}
		bad, err := RunSpecBenchmark("tage-gsc+imli", SpecUnrepaired, b, 40000)
		if err != nil {
			t.Fatal(err)
		}
		immTotal += imm.Mispredicted
		badTotal += bad.Mispredicted
	}
	if badTotal <= immTotal {
		t.Errorf("unrepaired speculation did not hurt: %d vs %d mispredictions", badTotal, immTotal)
	}
}

func TestSpecRejectsNonComposite(t *testing.T) {
	b, _ := workload.ByName("MM-1")
	if _, err := RunSpecBenchmark("bimodal", SpecCheckpointed, b, 100); err == nil {
		t.Error("non-composite accepted for speculative simulation")
	}
}

func TestSpecUnknownConfig(t *testing.T) {
	b, _ := workload.ByName("MM-1")
	if _, err := RunSpecBenchmark("nope", SpecImmediate, b, 100); err == nil {
		t.Error("unknown config accepted")
	}
}
