package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/predictor"
	"repro/internal/stats"
	"repro/internal/wormhole"
)

// runStorage reproduces the §4.4 budget accounting — the 708-byte IMLI
// component cost and the 26-bit speculative checkpoint — and the §2.3
// comparison with local-history speculation.
func runStorage(r *Runner) Report {
	var b strings.Builder
	vals := map[string]float64{}

	b.WriteString("Paper §4.4: IMLI components cost 708 bytes total (384 B IMLI-SIC, 128 B outer\n")
	b.WriteString("history, 192 B OH prediction table, 4 B PIPE+counter) and checkpoint in\n")
	b.WriteString("10 (IMLIcount) + 16 (PIPE) = 26 bits.\n\n")

	// IMLI component budget, from the same construction the predictors
	// use.
	imli := core.NewIMLI()
	sic := core.NewSIC(core.DefaultSICConfig(), imli)
	oh := core.NewOH(core.DefaultOHConfig(), imli)
	sicBytes := sic.StorageBits() / 8
	ohBits := oh.StorageBits()
	histBytes := 1024 / 8
	predBytes := 256 * 6 / 8
	miscBits := ohBits - 1024 - 256*6 + imli.StorageBits()
	total := sicBytes + ohBits/8 + (imli.StorageBits()+7)/8

	t := &stats.Table{Header: []string{"structure", "bytes"}}
	t.AddRow("IMLI-SIC table (512 x 6b)", fmt.Sprintf("%d", sicBytes))
	t.AddRow("IMLI outer history table (1 Kbit)", fmt.Sprintf("%d", histBytes))
	t.AddRow("IMLI-OH prediction table (256 x 6b)", fmt.Sprintf("%d", predBytes))
	t.AddRow("PIPE vector + IMLI counter", fmt.Sprintf("%d", (miscBits+7)/8))
	t.AddRow("total", fmt.Sprintf("%d", total))
	b.WriteString(t.String())
	vals["imli.bytes"] = float64(total)
	vals["sic.bytes"] = float64(sicBytes)

	// Checkpoint sizes per configuration.
	b.WriteString("\nper-fetch-block speculative checkpoint:\n")
	t2 := &stats.Table{Header: []string{"configuration", "checkpoint bits", "in-flight window bits"}}
	for _, cfg := range []string{"tage-gsc", "tage-gsc+imli", "tage-sc-l", "tage-gsc+wh"} {
		comp := predictor.MustNew(cfg).(*predictor.Composite)
		checkpoint, window := comp.CheckpointBits(), comp.SpeculativeSearchBits()
		t2.AddRow(cfg, fmt.Sprintf("%d", checkpoint), fmt.Sprintf("%d", window))
		vals["checkpoint."+cfg] = float64(checkpoint)
		vals["window."+cfg] = float64(window)
	}
	b.WriteString(t2.String())

	// IMLI-only checkpoint (on top of the global-history pointer every
	// predictor needs anyway).
	vals["imli.checkpoint.bits"] = float64(core.CounterBits + 16)
	fmt.Fprintf(&b, "\nIMLI-specific checkpoint: %d bits (counter %d + PIPE 16)\n",
		core.CounterBits+16, core.CounterBits)

	// The §2.3.2 in-flight window model: a 256-deep window carrying
	// local histories vs the 26-bit IMLI checkpoint.
	w := hist.NewInflightWindow(256, 16)
	fmt.Fprintf(&b, "local-history speculation (256-entry window, 16b histories): %d bits riding in flight + CAM search per fetch\n", w.StorageBits())
	whp := wormhole.DefaultConfig()
	fmt.Fprintf(&b, "wormhole speculation: %d bits of per-entry history to manage speculatively\n",
		whp.Entries*whp.HistBits)
	vals["window.model.bits"] = float64(w.StorageBits())

	// Full storage breakdown of the flagship configuration.
	b.WriteString("\ntage-gsc+imli storage breakdown:\n")
	t3 := &stats.Table{Header: []string{"component", "Kbits"}}
	for _, it := range predictor.MustNew("tage-gsc+imli").(*predictor.Composite).StorageBreakdown() {
		t3.AddRow(it.Name, fmt.Sprintf("%.1f", float64(it.Bits)/1024))
	}
	b.WriteString(t3.String())
	return Report{ID: "storage", Title: "storage and speculative state", Text: b.String(), Values: vals}
}
