// Package sc implements the statistical corrector of the paper's
// reference TAGE-GSC predictor (Figure 5): a neural adder tree that
// takes the TAGE prediction as an input and either confirms it (the
// common case) or reverts it when TAGE has statistically mispredicted
// in similar circumstances.
//
// The corrector's component list is open: the base GSC uses bias
// tables (indexed with PC + TAGE prediction) and global-history
// tables; the paper's IMLI components and the local-history components
// of TAGE-SC-L plug into the same tree.
package sc

import (
	"repro/internal/hist"
	"repro/internal/neural"
	"repro/internal/tage"
)

// Config sizes the statistical corrector.
type Config struct {
	// BiasEntries is the per-bias-table entry count (two bias tables).
	BiasEntries int
	// GlobalEntries is the per-global-table entry count.
	GlobalEntries int
	// GlobalHists lists the history length of each global table.
	GlobalHists []int
	// CtrBits is the counter width of all tables.
	CtrBits int
	// InitialTheta seeds the adaptive threshold.
	InitialTheta int
	// TageVoteHigh/Med/Low weight the TAGE prediction in the sum by
	// TAGE confidence.
	TageVoteHigh, TageVoteMed, TageVoteLow int
}

// DefaultConfig returns a small GSC (~24 Kbits) matching the balance
// of the paper's 228 Kbit TAGE-GSC (TAGE dominates the budget).
func DefaultConfig() Config {
	return Config{
		BiasEntries:   1024,
		GlobalEntries: 512,
		GlobalHists:   []int{4, 10, 16, 27},
		CtrBits:       6,
		InitialTheta:  35,
		TageVoteHigh:  64,
		TageVoteMed:   32,
		TageVoteLow:   8,
	}
}

// Corrector is a statistical corrector predictor.
type Corrector struct {
	cfg     Config
	tree    *neural.Tree
	bias    []*neural.BiasTable
	globals []*neural.GlobalTable

	lastSum int        //lint:allow snapcomplete Predict-to-Train scratch, dead at branch-boundary snapshot points
	lastCtx neural.Ctx //lint:allow snapcomplete Predict-to-Train scratch, dead at branch-boundary snapshot points
}

// New returns a corrector over the shared path history, allocating
// its folded global-history registers in bank. A nil bank gets a
// private one (standalone use); retrieve it from any global table's
// Bank and Push it after every history push.
func New(cfg Config, path *hist.Path, bank *hist.FoldedBank) *Corrector {
	c := &Corrector{cfg: cfg}
	if bank == nil {
		bank = hist.NewFoldedBank()
	}
	bias := neural.NewBiasTable("gsc-bias", cfg.BiasEntries, cfg.CtrBits, 0)
	biasSK := neural.NewBiasTable("gsc-bias-sk", cfg.BiasEntries, cfg.CtrBits, 0xfeedface)
	c.bias = []*neural.BiasTable{bias, biasSK}
	comps := []neural.Component{bias, biasSK}
	for i, h := range cfg.GlobalHists {
		t := neural.NewGlobalTable("gsc-g"+string(rune('0'+i)), cfg.GlobalEntries, cfg.CtrBits, h, path, bank)
		c.globals = append(c.globals, t)
		comps = append(comps, t)
	}
	c.tree = neural.NewTree(cfg.InitialTheta, comps...)
	return c
}

// Tree exposes the adder tree so configurations can add components
// (IMLI, local history).
func (c *Corrector) Tree() *neural.Tree { return c.tree }

// GlobalTables returns the corrector's global-history tables; the
// paper's §4.2 refinement inserts the IMLI counter into the indices of
// two of them.
func (c *Corrector) GlobalTables() []*neural.GlobalTable { return c.globals }

func (c *Corrector) tageVote(pred tage.Prediction) int {
	var w int
	switch pred.Conf {
	case tage.HighConf:
		w = c.cfg.TageVoteHigh
	case tage.MedConf:
		w = c.cfg.TageVoteMed
	default:
		w = c.cfg.TageVoteLow
	}
	if pred.Taken {
		return w
	}
	return -w
}

// Predict combines the TAGE prediction with the corrector components
// and returns the final direction. Must be followed by Update for the
// same branch. The PC hash computed by the TAGE Predict travels in
// tagePred.PCMix so the corrector's tables reuse it.
func (c *Corrector) Predict(pc uint64, tagePred tage.Prediction) bool {
	c.lastCtx = neural.Ctx{PC: pc, PCMix: tagePred.PCMix, TagePred: tagePred.Taken}
	c.lastSum = c.tree.Sum(c.lastCtx) + c.tageVote(tagePred)
	return c.lastSum >= 0
}

// Sum returns the last combined sum (for confidence inspection).
func (c *Corrector) Sum() int { return c.lastSum }

// Update trains the corrector with the resolved outcome.
func (c *Corrector) Update(taken bool) {
	c.tree.Train(c.lastCtx, taken, c.lastSum)
}

// StorageBits returns the corrector storage cost.
func (c *Corrector) StorageBits() int { return c.tree.StorageBits() }
