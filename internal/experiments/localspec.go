package experiments

import (
	"fmt"
	"maps"
	"strings"

	"repro/internal/core"
	"repro/internal/predictor"
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
	local := func(mode sim.LocalMode, suite string) sim.SuiteRun {
		return r.SuiteWith(fmt.Sprintf("%s/%s/%d", config, mode, delay), suite, func() predictor.Predictor {
			p, err := sim.NewLocalSpecPredictor(config, mode, delay)
			if err != nil {
				panic(err) // config is static and has local history
			}
			return p
		})
	}
	var b strings.Builder
	vals := map[string]float64{}

	fmt.Fprintf(&b, "Local-history speculation for %s with %d branches in flight:\n\n", config, delay)
	t := &stats.Table{Header: []string{"suite", "ideal", "forwarded (Figure 3)", "commit-only (stale)", "stale cost (MPKI)"}}
	// The window cost follows from each benchmark's merged result: one
	// search per conditional branch (sim.WindowComparisons).
	var searches, comparisons uint64
	for _, s := range suiteNames {
		idealRun, fwdRun := r.Suite(config, s), local(sim.LocalForwarded, s)
		ideal, fwd, stale := idealRun.AvgMPKI(), fwdRun.AvgMPKI(), local(sim.LocalCommitOnly, s).AvgMPKI()
		for _, res := range fwdRun.Results {
			searches += res.Conditionals
			comparisons += sim.WindowComparisons(res.Conditionals, delay)
		}
		if !maps.Equal(MPKIByTrace(fwdRun), MPKIByTrace(idealRun)) {
			// The equivalence is asserted by tests; surface it here too.
			b.WriteString("WARNING: forwarded mode diverged from ideal\n")
		}
		t.AddRow(s, stats.F(ideal), stats.F(fwd), stats.F(stale), stats.F(stale-ideal))
		vals["ideal."+s] = ideal
		vals["forwarded."+s] = fwd
		vals["commitonly."+s] = stale
	}
	fwd, _ := sim.NewLocalSpecPredictor(config, sim.LocalForwarded, delay)
	windowBits := fwd.(*sim.LocalSpecPredictor).Window().StorageBits()
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nforwarding cost: %d window searches (%.1f comparisons each), %d bits of history in flight\n",
		searches, float64(comparisons)/float64(searches), windowBits)
	fmt.Fprintf(&b, "the IMLI alternative: a %d-bit checkpoint, no search (see -exp=spec)\n",
		core.CounterBits+16)
	vals["window.bits"] = float64(windowBits)
	vals["imli.checkpoint.bits"] = float64(core.CounterBits + 16)
	return Report{ID: "localspec", Title: "local-history speculation cost", Text: b.String(), Values: vals}
}
