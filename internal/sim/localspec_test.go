package sim

import (
	"testing"

	"repro/internal/predictor"
	"repro/internal/snap"
	"repro/internal/workload"
)

// localSpec builds tage-sc-l with delay branches in flight under mode.
func localSpec(t *testing.T, mode LocalMode, delay int) predictor.Predictor {
	t.Helper()
	p, err := NewLocalSpecPredictor("tage-sc-l", mode, delay)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLocalModeString(t *testing.T) {
	if LocalIdeal.String() != "ideal" || LocalCommitOnly.String() != "commit-only" ||
		LocalForwarded.String() != "forwarded" || LocalMode(7).String() != "local?" {
		t.Error("mode names wrong")
	}
}

// TestForwardingIsExact is Figure 3 as an executable property: the
// in-flight window forwarding reproduces the idealised immediate
// update exactly — it just costs an associative search per fetch. The
// window's own counters pin the cost formula the localspec experiment
// derives from merged results.
func TestForwardingIsExact(t *testing.T) {
	for _, name := range []string{"MM07", "SERVER01"} {
		b := mustBench(t, name)
		ideal := feedBench(localSpec(t, LocalIdeal, 32), b, 30000)
		p := localSpec(t, LocalForwarded, 32)
		fwd := feedBench(p, b, 30000)
		w := p.(*LocalSpecPredictor).Window()
		if ideal.Mispredicted != fwd.Mispredicted {
			t.Errorf("%s: forwarded (%d misp) != ideal (%d misp)",
				name, fwd.Mispredicted, ideal.Mispredicted)
		}
		if w.Searches == 0 || w.StorageBits() == 0 {
			t.Errorf("%s: forwarding reported no search cost (searches=%d bits=%d)",
				name, w.Searches, w.StorageBits())
		}
		// One search per conditional branch fetch plus none extra.
		if w.Searches != fwd.Conditionals {
			t.Errorf("%s: %d searches for %d conditionals (want exactly one per fetch)",
				name, w.Searches, fwd.Conditionals)
		}
		if want := WindowComparisons(fwd.Conditionals, 32); w.Comparisons != want {
			t.Errorf("%s: %d comparisons, the formula gives %d", name, w.Comparisons, want)
		}
	}
	// Runs no longer than the window, and a window of none.
	b := mustBench(t, "MM07")
	for _, delay := range []int{0, 1 << 12} {
		p := localSpec(t, LocalForwarded, delay)
		res := feedBench(p, b, 2000)
		if got, want := p.(*LocalSpecPredictor).Window().Comparisons, WindowComparisons(res.Conditionals, delay); got != want {
			t.Errorf("delay %d over %d conditionals: %d comparisons, the formula gives %d",
				delay, res.Conditionals, got, want)
		}
	}
}

// TestCommitOnlyHurts: without the window, stale local histories cost
// accuracy on local-history-dependent workloads.
func TestCommitOnlyHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	var idealMiss, staleMiss uint64
	for _, name := range []string{"MM07", "WS04", "SERVER01", "MM02"} {
		b := mustBench(t, name)
		idealMiss += feedBench(localSpec(t, LocalIdeal, 32), b, 40000).Mispredicted
		p := localSpec(t, LocalCommitOnly, 32)
		staleMiss += feedBench(p, b, 40000).Mispredicted
		if p.(*LocalSpecPredictor).Window() != nil {
			t.Errorf("%s: commit-only mode reported window costs", name)
		}
	}
	if staleMiss <= idealMiss {
		t.Errorf("stale local history did not hurt: %d vs %d mispredictions", staleMiss, idealMiss)
	}
}

func TestLocalSpecRejectsNonLocalConfig(t *testing.T) {
	if _, err := NewLocalSpecPredictor("tage-gsc", LocalForwarded, 16); err == nil {
		t.Error("config without local history accepted")
	}
	if _, err := NewLocalSpecPredictor("bimodal", LocalForwarded, 16); err == nil {
		t.Error("non-composite accepted")
	}
	if _, err := NewLocalSpecPredictor("nope", LocalIdeal, 16); err == nil {
		t.Error("unknown config accepted")
	}
	if _, err := NewLocalSpecPredictor("tage-sc-l", LocalMode(7), 16); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := NewLocalSpecPredictor("tage-sc-l", LocalForwarded, -1); err == nil {
		t.Error("negative delay accepted")
	}
}

// TestLocalSpecIsNeverPooled: a wrapper's commit queue and window are
// outside any snapshot, so it is no snap.Snapshotter, and the engine
// builds one per work item and keeps none. LocalIdeal is the plain
// composite.
func TestLocalSpecIsNeverPooled(t *testing.T) {
	if p := localSpec(t, LocalIdeal, 32); p.Name() != "tage-sc-l" {
		t.Errorf("LocalIdeal built %q, want the plain composite", p.Name())
	}
	for _, mode := range []LocalMode{LocalCommitOnly, LocalForwarded} {
		if _, ok := localSpec(t, mode, 32).(snap.Snapshotter); ok {
			t.Fatalf("%s wrapper is a snap.Snapshotter", mode)
		}
	}
	const name = "tage-sc-l/forwarded/32"
	benches := workload.CBP4()[:3]
	built := 0
	e := NewEngine(EngineConfig{Workers: 1})
	for pass := 0; pass < 2; pass++ {
		e.RunSuite(func() predictor.Predictor {
			built++
			return localSpec(t, LocalForwarded, 32)
		}, name, "cbp4", benches, 2000)
	}
	if built != 2*len(benches) || len(freeList(e, name)) != 0 {
		t.Errorf("%d items built %d wrappers and pooled %d, want one each and none pooled",
			2*len(benches), built, len(freeList(e, name)))
	}
}
