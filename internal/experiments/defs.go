package experiments

import (
	"fmt"
	"strings"

	"repro/internal/predictor"
	"repro/internal/stats"
)

var suiteNames = []string{"cbp4", "cbp3"}

func init() {
	register(Experiment{ID: "e1", Title: "§3.2 base predictor accuracies (TAGE-GSC, GEHL)", Run: runE1})
	register(Experiment{ID: "e2", Title: "§3.3 wormhole prediction on top of TAGE-GSC and GEHL", Run: runE2})
	register(Experiment{ID: "fig8", Title: "Figure 8: IMLI-induced MPKI reduction, 80 benchmarks, TAGE-GSC", Run: runFig8})
	register(Experiment{ID: "fig9", Title: "Figure 9: IMLI-induced MPKI reduction, 15 most benefitting, TAGE-GSC", Run: runFig9})
	register(Experiment{ID: "fig10", Title: "Figure 10: IMLI-induced MPKI reduction, 80 benchmarks, GEHL", Run: runFig10})
	register(Experiment{ID: "fig11", Title: "Figure 11: IMLI-induced MPKI reduction, 15 most benefitting, GEHL", Run: runFig11})
	register(Experiment{ID: "e7", Title: "§4.2.2 IMLI-SIC averages and residual loop-predictor benefit", Run: runE7})
	register(Experiment{ID: "e8", Title: "§4.3 WH on top of Base+IMLI-SIC captures extra correlation", Run: runE8})
	register(Experiment{ID: "fig13", Title: "Figure 13: IMLI-OH vs WH prediction accuracy on top of GEHL", Run: runFig13})
	register(Experiment{ID: "e10", Title: "§4.3.2 delayed update of the IMLI outer-history table", Run: runE10})
	register(Experiment{ID: "table1", Title: "Table 1 + Figure 14: TAGE-GSC Base/+L/+I/+I+L", Run: runTable1})
	register(Experiment{ID: "table2", Title: "Table 2 + Figure 15: GEHL Base/+L/+I/+I+L", Run: runTable2})
	register(Experiment{ID: "storage", Title: "§4.4 storage budget and speculative-state checkpoint sizes", Run: runStorage})
	register(Experiment{ID: "record", Title: "§5 record: TAGE-SC-L+IMLI vs TAGE-SC-L", Run: runRecord})
	register(Experiment{ID: "e15", Title: "§2.3.3 are local history components worth the complexity?", Run: runE15})
	register(Experiment{ID: "ablation", Title: "Ablations: IMLI-SIC/OH table sizes, WH entries", Run: runAblation})
}

// averages runs config over both suites and returns {suite: avg MPKI}.
func averages(r *Runner, config string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range suiteNames {
		out[s] = r.Suite(config, s).AvgMPKI()
	}
	return out
}

func runE1(r *Runner) Report {
	t := &stats.Table{Header: []string{"predictor", "size (Kbits)", "CBP4 MPKI", "CBP3 MPKI"}}
	vals := map[string]float64{}
	for _, cfg := range []string{"tage-gsc", "gehl", "gshare", "bimodal"} {
		avg := averages(r, cfg)
		bits := predictor.MustNew(cfg).StorageBits()
		t.AddRow(cfg, fmt.Sprintf("%d", bits/1024), stats.F(avg["cbp4"]), stats.F(avg["cbp3"]))
		vals[cfg+".cbp4"] = avg["cbp4"]
		vals[cfg+".cbp3"] = avg["cbp3"]
		vals[cfg+".kbits"] = float64(bits) / 1024
	}
	text := "Paper: TAGE-GSC 2.473/3.902 MPKI (228 Kbits); GEHL 2.864/4.243 MPKI (204 Kbits).\n\n" + t.String()
	return Report{ID: "e1", Title: "base predictor accuracies", Text: text, Values: vals}
}

func runE2(r *Runner) Report {
	var b strings.Builder
	vals := map[string]float64{}
	b.WriteString("Paper: WH gives -2.4%/-2.2% on TAGE-GSC and -2.2%/-2.5% on GEHL,\n")
	b.WriteString("entirely from SPEC2K6-12, MM-4 (CBP4) and CLIENT02, MM07 (CBP3).\n\n")
	for _, base := range []string{"tage-gsc", "gehl"} {
		wh := base + "+wh"
		t := &stats.Table{Header: []string{"suite", base, wh, "change"}}
		for _, s := range suiteNames {
			bm := r.Suite(base, s).AvgMPKI()
			wm := r.Suite(wh, s).AvgMPKI()
			t.AddRow(s, stats.F(bm), stats.F(wm), stats.Pct(stats.PctChange(bm, wm)))
			vals[wh+"."+s] = wm
			vals[base+"."+s] = bm
		}
		b.WriteString(t.String())
		// Per-benchmark benefit concentration.
		t2 := &stats.Table{Header: []string{"trace", "base", "+wh", "reduction"}}
		for _, s := range suiteNames {
			deltas := stats.Deltas(r.TraceNames(s), MPKIByTrace(r.Suite(base, s)), MPKIByTrace(r.Suite(wh, s)))
			for _, d := range stats.TopK(deltas, 3) {
				t2.AddRow(d.Trace, stats.F2(d.Base), stats.F2(d.Variant), stats.F2(d.Reduction))
				vals[wh+".reduction."+d.Trace] = d.Reduction
			}
		}
		b.WriteString("top benefitting traces:\n" + t2.String() + "\n")
	}
	return Report{ID: "e2", Title: "wormhole on top of the bases", Text: b.String(), Values: vals}
}

// figReduction renders a Figure 8/10-style per-benchmark reduction
// chart for a base and its +SIC and +IMLI variants.
func figReduction(r *Runner, id, title, base string, topK int) Report {
	sic := base + "+sic"
	imli := base + "+imli"
	vals := map[string]float64{}
	var b strings.Builder
	type row struct {
		trace    string
		sicRed   float64
		imliRed  float64
		baseMPKI float64
	}
	var rows []row
	for _, s := range suiteNames {
		baseM := MPKIByTrace(r.Suite(base, s))
		sicM := MPKIByTrace(r.Suite(sic, s))
		imliM := MPKIByTrace(r.Suite(imli, s))
		for _, tr := range r.TraceNames(s) {
			rows = append(rows, row{
				trace:    tr,
				sicRed:   baseM[tr] - sicM[tr],
				imliRed:  baseM[tr] - imliM[tr],
				baseMPKI: baseM[tr],
			})
		}
		vals["base."+s] = r.Suite(base, s).AvgMPKI()
		vals["sic."+s] = r.Suite(sic, s).AvgMPKI()
		vals["imli."+s] = r.Suite(imli, s).AvgMPKI()
	}
	if topK > 0 {
		// Keep the topK rows by IMLI reduction, like Figures 9/11.
		deltas := make([]stats.Delta, len(rows))
		for i, rw := range rows {
			deltas[i] = stats.Delta{Trace: rw.trace, Reduction: rw.imliRed}
		}
		keep := map[string]bool{}
		for _, d := range stats.TopK(deltas, topK) {
			keep[d.Trace] = true
		}
		var kept []row
		for _, rw := range rows {
			if keep[rw.trace] {
				kept = append(kept, rw)
			}
		}
		rows = kept
	}
	maxRed := 0.0
	for _, rw := range rows {
		if rw.imliRed > maxRed {
			maxRed = rw.imliRed
		}
	}
	t := &stats.Table{Header: []string{"trace", "base MPKI", "Δ sic", "Δ sic+oh", "reduction"}}
	for _, rw := range rows {
		t.AddRow(rw.trace, stats.F2(rw.baseMPKI), stats.F2(rw.sicRed), stats.F2(rw.imliRed),
			stats.Bar(rw.imliRed, maxRed, 30))
		vals["red."+rw.trace] = rw.imliRed
	}
	fmt.Fprintf(&b, "MPKI reduction over %s (positive = IMLI better).\n", base)
	fmt.Fprintf(&b, "suite averages: base cbp4=%.3f cbp3=%.3f; +sic %.3f/%.3f; +imli %.3f/%.3f\n\n",
		vals["base.cbp4"], vals["base.cbp3"], vals["sic.cbp4"], vals["sic.cbp3"], vals["imli.cbp4"], vals["imli.cbp3"])
	b.WriteString(t.String())
	return Report{ID: id, Title: title, Text: b.String(), Values: vals}
}

func runFig8(r *Runner) Report {
	return figReduction(r, "fig8", "IMLI reduction on TAGE-GSC (80 benchmarks)", "tage-gsc", 0)
}

func runFig9(r *Runner) Report {
	return figReduction(r, "fig9", "IMLI reduction on TAGE-GSC (top 15)", "tage-gsc", 15)
}

func runFig10(r *Runner) Report {
	return figReduction(r, "fig10", "IMLI reduction on GEHL (80 benchmarks)", "gehl", 0)
}

func runFig11(r *Runner) Report {
	return figReduction(r, "fig11", "IMLI reduction on GEHL (top 15)", "gehl", 15)
}

func runE7(r *Runner) Report {
	var b strings.Builder
	vals := map[string]float64{}
	b.WriteString("Paper: SIC alone takes TAGE-GSC from 2.473→2.373 (CBP4) and 3.902→3.733 (CBP3);\n")
	b.WriteString("the loop predictor's benefit shrinks from 0.034→0.013 (CBP4) and 0.094→0.010 (CBP3) once SIC is on.\n\n")
	t := &stats.Table{Header: []string{"suite", "base", "+sic", "+loop", "+sic+loop", "loop benefit w/o sic", "loop benefit w/ sic"}}
	for _, s := range suiteNames {
		base := r.Suite("tage-gsc", s).AvgMPKI()
		sic := r.Suite("tage-gsc+sic", s).AvgMPKI()
		lp := r.Suite("tage-gsc+loop", s).AvgMPKI()
		// tage-gsc+imli+loop has OH too; build a SIC+loop config.
		sicLoop := r.Suite("tage-gsc+sic+loop", s).AvgMPKI()
		benefitNoSIC := base - lp
		benefitSIC := sic - sicLoop
		t.AddRow(s, stats.F(base), stats.F(sic), stats.F(lp), stats.F(sicLoop),
			stats.F(benefitNoSIC), stats.F(benefitSIC))
		vals["loopbenefit.nosic."+s] = benefitNoSIC
		vals["loopbenefit.sic."+s] = benefitSIC
		vals["sic."+s] = sic
		vals["base."+s] = base
	}
	b.WriteString(t.String())
	return Report{ID: "e7", Title: "SIC averages and loop redundancy", Text: b.String(), Values: vals}
}

func runE8(r *Runner) Report {
	var b strings.Builder
	vals := map[string]float64{}
	b.WriteString("Paper: adding WH over Base+SIC still helps (2.373→2.323 CBP4 TAGE-GSC),\n")
	b.WriteString("only on SPEC2K6-12, MM-4, CLIENT02, MM07 — the correlation SIC cannot see.\n\n")
	for _, base := range []string{"tage-gsc", "gehl"} {
		t := &stats.Table{Header: []string{"suite", base + "+sic", base + "+sic+wh", "reduction"}}
		for _, s := range suiteNames {
			sic := r.Suite(base+"+sic", s).AvgMPKI()
			both := r.Suite(base+"+sic+wh", s).AvgMPKI()
			t.AddRow(s, stats.F(sic), stats.F(both), stats.F(sic-both))
			vals[base+".sic."+s] = sic
			vals[base+".sicwh."+s] = both
		}
		b.WriteString(t.String())
		// The residual WH benefit concentrates on the wormhole-class
		// benchmarks (the correlation SIC cannot express).
		t2 := &stats.Table{Header: []string{"trace", base + "+sic", "+wh", "reduction"}}
		for _, s := range suiteNames {
			deltas := stats.Deltas(r.TraceNames(s),
				MPKIByTrace(r.Suite(base+"+sic", s)), MPKIByTrace(r.Suite(base+"+sic+wh", s)))
			for _, d := range stats.TopK(deltas, 2) {
				t2.AddRow(d.Trace, stats.F2(d.Base), stats.F2(d.Variant), stats.F2(d.Reduction))
				vals[base+".sicwh.reduction."+d.Trace] = d.Reduction
			}
		}
		b.WriteString("top residual WH benefit:\n" + t2.String() + "\n")
	}
	return Report{ID: "e8", Title: "WH over Base+SIC", Text: b.String(), Values: vals}
}

func runFig13(r *Runner) Report {
	var b strings.Builder
	vals := map[string]float64{}
	b.WriteString("Figure 13: per-benchmark MPKI of GEHL vs GEHL+WH vs GEHL+IMLI-OH\n")
	b.WriteString("(the paper shows both fix the same wormhole-class benchmarks).\n\n")
	t := &stats.Table{Header: []string{"trace", "gehl", "gehl+wh", "gehl+oh", "Δwh", "Δoh"}}
	for _, s := range suiteNames {
		base := MPKIByTrace(r.Suite("gehl", s))
		wh := MPKIByTrace(r.Suite("gehl+wh", s))
		oh := MPKIByTrace(r.Suite("gehl+oh", s))
		deltas := stats.Deltas(r.TraceNames(s), base, oh)
		for _, d := range stats.TopK(deltas, 6) {
			tr := d.Trace
			t.AddRow(tr, stats.F2(base[tr]), stats.F2(wh[tr]), stats.F2(oh[tr]),
				stats.F2(base[tr]-wh[tr]), stats.F2(base[tr]-oh[tr]))
			vals["wh."+tr] = base[tr] - wh[tr]
			vals["oh."+tr] = base[tr] - oh[tr]
		}
	}
	b.WriteString(t.String())
	return Report{ID: "fig13", Title: "IMLI-OH vs WH on GEHL", Text: b.String(), Values: vals}
}

func runE10(r *Runner) Report {
	var b strings.Builder
	vals := map[string]float64{}
	b.WriteString("Paper: updating the IMLI history table up to 63 conditional branches late\n")
	b.WriteString("costs ~0.002 MPKI — the component needs no precise speculative management.\n\n")
	t := &stats.Table{Header: []string{"suite", "immediate", "delayed(63)", "loss"}}
	var totalLoss float64
	const key = "tage-gsc+imli@delay63"
	for _, s := range suiteNames {
		imm := r.Suite("tage-gsc+imli", s).AvgMPKI()
		del := r.SuiteWith(key, s, func() predictor.Predictor {
			return predictor.NewCustom(key, predictor.Options{
				Base: predictor.BaseTAGEGSC, IMLISIC: true, IMLIOH: true, IMLIIndexInsert: true,
				OHDelay: 63,
			})
		}).AvgMPKI()
		t.AddRow(s, stats.F(imm), stats.F(del), stats.F(del-imm))
		vals["loss."+s] = del - imm
		totalLoss += del - imm
	}
	vals["loss.avg"] = totalLoss / float64(len(suiteNames))
	b.WriteString(t.String())
	return Report{ID: "e10", Title: "delayed IMLI history update", Text: b.String(), Values: vals}
}

// tableBaseILI renders a Table 1/2-style report for a base predictor.
func tableBaseILI(r *Runner, id, paperNote, base, plusL, plusI, plusIL string, topK int) Report {
	var b strings.Builder
	vals := map[string]float64{}
	b.WriteString(paperNote + "\n\n")
	configs := []string{base, plusL, plusI, plusIL}
	labels := []string{"Base", "+L", "+I", "+I+L"}
	t := &stats.Table{Header: []string{"", "size (Kbits)", "CBP4", "CBP3"}}
	for i, cfg := range configs {
		bits := predictor.MustNew(cfg).StorageBits()
		avg := averages(r, cfg)
		t.AddRow(labels[i], fmt.Sprintf("%d", bits/1024), stats.F(avg["cbp4"]), stats.F(avg["cbp3"]))
		vals[labels[i]+".cbp4"] = avg["cbp4"]
		vals[labels[i]+".cbp3"] = avg["cbp3"]
		vals[labels[i]+".kbits"] = float64(bits) / 1024
	}
	b.WriteString(t.String())

	// Figure 14/15 companion: the topK most affected benchmarks.
	b.WriteString("\nmost affected benchmarks (MPKI):\n")
	t2 := &stats.Table{Header: []string{"trace", "Base", "+L", "+I", "+I+L"}}
	type row struct {
		trace string
		m     [4]float64
	}
	var rows []row
	for _, s := range suiteNames {
		ms := make([]map[string]float64, 4)
		for i, cfg := range configs {
			ms[i] = MPKIByTrace(r.Suite(cfg, s))
		}
		for _, tr := range r.TraceNames(s) {
			rows = append(rows, row{trace: tr, m: [4]float64{ms[0][tr], ms[1][tr], ms[2][tr], ms[3][tr]}})
		}
	}
	deltas := make([]stats.Delta, len(rows))
	for i, rw := range rows {
		best := rw.m[3]
		deltas[i] = stats.Delta{Trace: rw.trace, Reduction: rw.m[0] - best}
	}
	keep := map[string]bool{}
	for _, d := range stats.TopKByMagnitude(deltas, topK) {
		keep[d.Trace] = true
	}
	for _, rw := range rows {
		if keep[rw.trace] {
			t2.AddRow(rw.trace, stats.F2(rw.m[0]), stats.F2(rw.m[1]), stats.F2(rw.m[2]), stats.F2(rw.m[3]))
		}
	}
	b.WriteString(t2.String())

	// The overlap claim: +L benefit with and without IMLI.
	t3 := &stats.Table{Header: []string{"suite", "L benefit w/o IMLI", "L benefit w/ IMLI"}}
	for _, s := range suiteNames {
		noI := vals["Base."+s] - vals["+L."+s]
		withI := vals["+I."+s] - vals["+I+L."+s]
		t3.AddRow(s, stats.F(noI), stats.F(withI))
		vals["lbenefit.noimli."+s] = noI
		vals["lbenefit.imli."+s] = withI
	}
	b.WriteString("\nlocal-history benefit shrinks once IMLI is present:\n" + t3.String())
	return Report{ID: id, Title: "Base/+L/+I/+I+L", Text: b.String(), Values: vals}
}

func runTable1(r *Runner) Report {
	return tableBaseILI(r, "table1",
		"Paper (Table 1, TAGE-GSC): Base 2.473/3.902, +L 2.365/3.670, +I 2.313/3.649, +I+L 2.226/3.555 MPKI.",
		"tage-gsc", "tage-sc-l", "tage-gsc+imli", "tage-sc-l+imli", 25)
}

func runTable2(r *Runner) Report {
	return tableBaseILI(r, "table2",
		"Paper (Table 2, GEHL): Base 2.864/4.243, +L 2.693/3.924, +I 2.694/3.958, +I+L 2.562/3.827 MPKI.",
		"gehl", "gehl+l", "gehl+imli", "gehl+imli+l", 25)
}

func runRecord(r *Runner) Report {
	var b strings.Builder
	vals := map[string]float64{}
	b.WriteString("Paper §5: TAGE-SC-L enhanced with IMLI achieves 2.228 MPKI, 5.8% below the\n")
	b.WriteString("2.365 MPKI of the original CBP4-winning TAGE-SC-L.\n\n")
	t := &stats.Table{Header: []string{"suite", "tage-sc-l", "tage-sc-l+imli", "change"}}
	for _, s := range suiteNames {
		scl := r.Suite("tage-sc-l", s).AvgMPKI()
		rec := r.Suite("tage-sc-l+imli", s).AvgMPKI()
		t.AddRow(s, stats.F(scl), stats.F(rec), stats.Pct(stats.PctChange(scl, rec)))
		vals["tage-sc-l."+s] = scl
		vals["record."+s] = rec
	}
	b.WriteString(t.String())
	return Report{ID: "record", Title: "setting a new record", Text: b.String(), Values: vals}
}

func runE15(r *Runner) Report {
	var b strings.Builder
	vals := map[string]float64{}
	b.WriteString("Paper §2.3.3: deactivating local+loop in TAGE-SC-L costs +4.8% (CBP4) / +6.5%\n")
	b.WriteString("(CBP3); a 16-entry loop predictor reclaims about a third of that.\n\n")
	t := &stats.Table{Header: []string{"suite", "tage-sc-l", "tage-gsc", "cost", "+loop16", "reclaimed"}}
	for _, s := range suiteNames {
		scl := r.Suite("tage-sc-l", s).AvgMPKI()
		base := r.Suite("tage-gsc", s).AvgMPKI()
		l16 := r.Suite("tage-gsc+loop16", s).AvgMPKI()
		cost := stats.PctChange(scl, base)
		reclaimed := 0.0
		if base-scl > 0 {
			reclaimed = (base - l16) / (base - scl)
		}
		t.AddRow(s, stats.F(scl), stats.F(base), stats.Pct(cost), stats.F(l16),
			fmt.Sprintf("%.0f%%", reclaimed*100))
		vals["cost."+s] = cost
		vals["reclaimed."+s] = reclaimed
	}
	b.WriteString(t.String())
	return Report{ID: "e15", Title: "is local history worth it", Text: b.String(), Values: vals}
}
