package sim

import (
	"bytes"
	"testing"

	"repro/internal/predictor"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// feedBench runs p over the first budget records of b's stream.
func feedBench(p predictor.Predictor, b workload.Benchmark, budget int) Result {
	return Feed(p, b.Name, func(emit func(trace.Record)) { b.Generate(budget, emit) })
}

// specBuilder builds config under a speculative-history mode.
func specBuilder(config string, mode SpecMode) func() predictor.Predictor {
	return func() predictor.Predictor {
		p, err := NewSpecPredictor(config, mode)
		if err != nil {
			panic(err)
		}
		return p
	}
}

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
				b := mustBench(t, name)
				var res [2]Result
				var state [2][]byte
				for i, mode := range []SpecMode{SpecImmediate, SpecCheckpointed} {
					p := specBuilder(config, mode)()
					res[i] = feedBench(p, b, budget)
					e := snap.NewEncoder()
					p.(snap.Snapshotter).Snapshot(e)
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
		b := mustBench(t, name)
		immTotal += feedBench(specBuilder("tage-gsc+imli", SpecImmediate)(), b, 40000).Mispredicted
		badTotal += feedBench(specBuilder("tage-gsc+imli", SpecUnrepaired)(), b, 40000).Mispredicted
	}
	if badTotal <= immTotal {
		t.Errorf("unrepaired speculation did not hurt: %d vs %d mispredictions", badTotal, immTotal)
	}
}

func TestSpecRejectsNonComposite(t *testing.T) {
	if _, err := NewSpecPredictor("bimodal", SpecCheckpointed); err == nil {
		t.Error("non-composite accepted for speculative simulation")
	}
}

func TestSpecUnknownConfig(t *testing.T) {
	if _, err := NewSpecPredictor("nope", SpecImmediate); err == nil {
		t.Error("unknown config accepted")
	}
	if _, err := NewSpecPredictor("tage-gsc+imli", SpecMode(9)); err == nil {
		t.Error("unknown mode accepted")
	}
}
