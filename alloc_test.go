// Steady-state allocation gate for the predict/train hot path. The
// flattened history layer (hist.FoldedBank, DESIGN.md §7) makes the
// whole per-branch round-trip allocation-free once a predictor is
// warmed up; this test locks that in for every registry configuration
// and is run as a dedicated CI step.
//
// The entry points driven here come from internal/hotlist — the same
// source of truth the static hotpath analyzer roots its call graph at
// — so the runtime gate and the vet-time gate cannot drift apart: a
// hot entry added to the list without a driver below, or a driver
// whose entry left the list, fails this test.
package imli_test

import (
	"testing"

	"repro/internal/hotlist"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// drivers maps each hotlist entry method to the call that exercises it
// for one record. Predict and Train fire on conditional branches,
// TrackOther on everything else — together they cover the per-branch
// protocol the engine runs (DESIGN.md §7). TrainTables and SpecPush
// run the same record again through the two halves of Composite.Train,
// predicting it first as the speculative pipeline model does; they
// no-op for registry adapters that are not composites.
func drivers(p predictor.Predictor) map[string]func(trace.Record) {
	comp, _ := p.(*predictor.Composite)
	return map[string]func(trace.Record){
		"Predict": func(r trace.Record) {
			if r.Conditional() {
				p.Predict(r.PC)
			}
		},
		"Train": func(r trace.Record) {
			if r.Conditional() {
				p.Train(r.PC, r.Target, r.Taken)
			}
		},
		"TrackOther": func(r trace.Record) {
			if !r.Conditional() {
				p.TrackOther(r.PC, r.Target, r.Kind, r.Taken)
			}
		},
		"TrainTables": func(r trace.Record) {
			if comp != nil && r.Conditional() {
				comp.Predict(r.PC)
				comp.TrainTables(r.PC, r.Target, r.Taken)
			}
		},
		"SpecPush": func(r trace.Record) {
			if comp != nil && r.Conditional() {
				comp.SpecPush(r.PC, r.Target, r.Taken)
			}
		},
	}
}

// TestPredictTrainZeroAlloc drives every registry configuration over a
// multi-kernel record stream and requires zero heap allocations per
// branch in steady state.
func TestPredictTrainZeroAlloc(t *testing.T) {
	bench, err := workload.ByName("SPEC2K6-12")
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	bench.Generate(4096, func(r trace.Record) { recs = append(recs, r) })

	for _, config := range predictor.Names() {
		p := predictor.MustNew(config)
		byMethod := drivers(p)
		entries := make([]func(trace.Record), 0, len(hotlist.Methods()))
		for _, m := range hotlist.Methods() {
			d, ok := byMethod[m]
			if !ok {
				t.Fatalf("hotlist entry %q has no driver in alloc_test.go: the runtime gate no longer covers the static gate's roots", m)
			}
			entries = append(entries, d)
			delete(byMethod, m)
		}
		for m := range byMethod {
			t.Fatalf("alloc_test.go drives %q, which hotlist.Methods no longer lists: remove the dead driver", m)
		}
		feed := func(r trace.Record) {
			for _, d := range entries {
				d(r)
			}
		}
		// Warm up: TAGE allocation churn, loop/wormhole entry
		// allocation and table growth all happen against fixed
		// pre-sized storage, but give every component a full pass
		// before measuring anyway.
		for _, r := range recs {
			feed(r)
		}
		i := 0
		avg := testing.AllocsPerRun(2000, func() {
			feed(recs[i%len(recs)])
			i++
		})
		if avg != 0 {
			t.Errorf("%s: %v allocs per branch in steady state, want 0", config, avg)
		}
	}
}
