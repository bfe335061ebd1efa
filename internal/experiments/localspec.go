package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "localspec",
		Title: "§2.3.2 Figure 3: the in-flight window local history requires",
		Run:   runLocalSpec,
	})
}

// runLocalSpec makes the paper's §2.3.2 argument quantitative: a
// local-history predictor must either search the window of in-flight
// branches on every fetch (exact, but a CAM per cycle) or accept stale
// histories (cheap, but loses accuracy). The IMLI components replace
// all of it with a 26-bit checkpoint.
func runLocalSpec(r *Runner) Report {
	const config = "tage-sc-l"
	const delay = 32 // in-flight conditional branches (a modest window)
	var b strings.Builder
	vals := map[string]float64{}

	fmt.Fprintf(&b, "Local-history speculation for %s with %d branches in flight:\n\n", config, delay)
	t := &stats.Table{Header: []string{"suite", "ideal", "forwarded (Figure 3)", "commit-only (stale)", "stale cost (MPKI)"}}
	var searches, comparisons uint64
	windowBits := 0
	for _, s := range suiteNames {
		benches := r.Benchmarks(s)
		avg := map[sim.LocalMode]float64{}
		miss := map[sim.LocalMode]uint64{}
		for _, mode := range []sim.LocalMode{sim.LocalIdeal, sim.LocalForwarded, sim.LocalCommitOnly} {
			var total float64
			for _, bench := range benches {
				if r.params.Context.Err() != nil {
					break // canceled: the report is discarded
				}
				res, err := sim.RunLocalSpec(config, mode, delay, bench, r.params.Budget)
				if err != nil {
					panic(err) // config is static and has local history
				}
				total += res.MPKI()
				miss[mode] += res.Mispredicted
				if mode == sim.LocalForwarded {
					searches += res.Searches
					comparisons += res.Comparisons
					windowBits = res.WindowBits
				}
			}
			avg[mode] = total / float64(len(benches))
		}
		if miss[sim.LocalForwarded] != miss[sim.LocalIdeal] {
			// The equivalence is asserted by tests; surface it here too.
			b.WriteString("WARNING: forwarded mode diverged from ideal\n")
		}
		t.AddRow(s, stats.F(avg[sim.LocalIdeal]), stats.F(avg[sim.LocalForwarded]),
			stats.F(avg[sim.LocalCommitOnly]), stats.F(avg[sim.LocalCommitOnly]-avg[sim.LocalIdeal]))
		vals["ideal."+s] = avg[sim.LocalIdeal]
		vals["forwarded."+s] = avg[sim.LocalForwarded]
		vals["commitonly."+s] = avg[sim.LocalCommitOnly]
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nforwarding cost: %d window searches (%.1f comparisons each), %d bits of history in flight\n",
		searches, float64(comparisons)/float64(searches), windowBits)
	fmt.Fprintf(&b, "the IMLI alternative: a %d-bit checkpoint, no search (see -exp=spec)\n",
		core.CounterBits+16)
	vals["window.bits"] = float64(windowBits)
	vals["imli.checkpoint.bits"] = float64(core.CounterBits + 16)
	return Report{ID: "localspec", Title: "local-history speculation cost", Text: b.String(), Values: vals}
}
