package experiments

import (
	"maps"
	"strings"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "spec",
		Title: "§2.3/§4.4 speculative history management: checkpoint repair vs none",
		Run:   runSpec,
	})
}

// runSpec quantifies the paper's speculative-state argument in
// simulation: with per-branch checkpointing of the 26-bit IMLI state
// (plus the global history pointer), speculative history updates are
// exactly repaired — prediction-for-prediction identical to the
// idealised immediate-update methodology. Without repair, wrong-path
// history bits corrupt the predictor measurably.
func runSpec(r *Runner) Report {
	var b strings.Builder
	vals := map[string]float64{}
	const config = "tage-gsc+imli"
	spec := func(mode sim.SpecMode, suite string) sim.SuiteRun {
		return r.SuiteWith(config+"/"+mode.String(), suite, func() predictor.Predictor {
			p, err := sim.NewSpecPredictor(config, mode)
			if err != nil {
				panic(err) // config is static and composite
			}
			return p
		})
	}

	b.WriteString("Speculative-history modes for " + config + " (per-branch fetch checkpoint:\n")
	b.WriteString("global history pointer + 10-bit IMLI counter + 16-bit PIPE):\n\n")

	t := &stats.Table{Header: []string{"suite", "immediate", "checkpointed", "unrepaired", "repair exact?", "no-repair cost (MPKI)"}}
	for _, s := range suiteNames {
		immRun, ckRun := r.Suite(config, s), spec(sim.SpecCheckpointed, s)
		imm, ck, bad := immRun.AvgMPKI(), ckRun.AvgMPKI(), spec(sim.SpecUnrepaired, s).AvgMPKI()
		// Both runs see the same instructions, so equal MPKI on every
		// trace means equal mispredictions.
		exact := maps.Equal(MPKIByTrace(ckRun), MPKIByTrace(immRun))
		t.AddRow(s, stats.F(imm), stats.F(ck), stats.F(bad), boolStr(exact), stats.F(bad-imm))
		vals["immediate."+s] = imm
		vals["checkpointed."+s] = ck
		vals["unrepaired."+s] = bad
		if exact {
			vals["exact."+s] = 1
		}
	}
	b.WriteString(t.String())
	b.WriteString("\nCheckpointed speculation must equal the immediate-update reference exactly;\n")
	b.WriteString("the unrepaired column is what a design without checkpoints would lose.\n")
	return Report{ID: "spec", Title: "speculative history management", Text: b.String(), Values: vals}
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}
