package experiments

import (
	"strings"

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

	b.WriteString("Speculative-history modes for " + config + " (per-branch fetch checkpoint:\n")
	b.WriteString("global history pointer + 10-bit IMLI counter + 16-bit PIPE):\n\n")

	t := &stats.Table{Header: []string{"suite", "immediate", "checkpointed", "unrepaired", "repair exact?", "no-repair cost (MPKI)"}}
	for _, s := range suiteNames {
		benches := r.Benchmarks(s)
		avg := map[sim.SpecMode]float64{}
		miss := map[sim.SpecMode]uint64{}
		for _, mode := range []sim.SpecMode{sim.SpecImmediate, sim.SpecCheckpointed, sim.SpecUnrepaired} {
			var total float64
			for _, bench := range benches {
				if r.params.Context.Err() != nil {
					break // canceled: the report is discarded
				}
				res, err := sim.RunSpecBenchmark(config, mode, bench, r.params.Budget)
				if err != nil {
					panic(err) // config is static and composite
				}
				total += res.MPKI()
				miss[mode] += res.Mispredicted
			}
			avg[mode] = total / float64(len(benches))
		}
		exact := miss[sim.SpecCheckpointed] == miss[sim.SpecImmediate]
		imm := avg[sim.SpecImmediate]
		bad := avg[sim.SpecUnrepaired]
		t.AddRow(s, stats.F(imm), stats.F(avg[sim.SpecCheckpointed]), stats.F(bad),
			boolStr(exact), stats.F(bad-imm))
		vals["immediate."+s] = imm
		vals["checkpointed."+s] = avg[sim.SpecCheckpointed]
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
