// Package gehl implements the GEHL predictor (Seznec, 2005): an
// adder tree of prediction tables indexed with geometrically
// increasing global history lengths. It is the paper's representative
// of neural-inspired global history predictors (§3.2.2: 17 tables of
// 2K 6-bit counters, maximum history length 600, 204 Kbits).
//
// IMLI and local-history components are added to the same adder tree
// (Figure 6), which is how the paper builds GEHL+IMLI and FTL-style
// GEHL+local configurations.
package gehl

import (
	"math"

	"repro/internal/hist"
	"repro/internal/neural"
)

// Config sizes a GEHL predictor.
type Config struct {
	// NumTables is the number of global-history tables (the first is
	// indexed with history length 0, i.e. PC only).
	NumTables int
	// MinHist and MaxHist bound the geometric history series of the
	// remaining tables.
	MinHist, MaxHist int
	// Entries is the per-table entry count.
	Entries int
	// CtrBits is the counter width.
	CtrBits int
	// InitialTheta seeds the adaptive update threshold.
	InitialTheta int
}

// DefaultConfig matches the paper's 204 Kbit GEHL: 17 tables × 2K
// entries × 6-bit counters, max history 600.
func DefaultConfig() Config {
	return Config{
		NumTables:    17,
		MinHist:      2,
		MaxHist:      600,
		Entries:      2048,
		CtrBits:      6,
		InitialTheta: 40,
	}
}

// Predictor is a GEHL predictor. It reads the shared speculative
// global history and path history; its folded history registers live
// in a hist.FoldedBank the owner must Push after each history push.
type Predictor struct {
	cfg    Config
	tree   *neural.Tree
	tables []*neural.GlobalTable
	bank   *hist.FoldedBank

	// state between Predict and Update
	lastSum int        //lint:allow snapcomplete Predict-to-Train scratch, dead at branch-boundary snapshot points
	lastCtx neural.Ctx //lint:allow snapcomplete Predict-to-Train scratch, dead at branch-boundary snapshot points
}

// New returns a GEHL predictor over the shared path history,
// allocating its folded global-history registers in bank. A nil bank
// gets a private one (standalone use); retrieve it with Bank and Push
// it after every history push.
func New(cfg Config, path *hist.Path, bank *hist.FoldedBank) *Predictor {
	if bank == nil {
		bank = hist.NewFoldedBank()
	}
	p := &Predictor{cfg: cfg, bank: bank}
	lens := Lengths(cfg)
	for i, l := range lens {
		t := neural.NewGlobalTable(tableName(i), cfg.Entries, cfg.CtrBits, l, path, bank)
		p.tables = append(p.tables, t)
	}
	comps := make([]neural.Component, len(p.tables))
	for i, t := range p.tables {
		comps[i] = t
	}
	p.tree = neural.NewTree(cfg.InitialTheta, comps...)
	return p
}

func tableName(i int) string {
	return "gehl-" + string(rune('a'+i%26))
}

// Lengths returns the history length series for cfg: 0 for the first
// table, then a geometric progression MinHist..MaxHist.
func Lengths(cfg Config) []int {
	lens := make([]int, cfg.NumTables)
	if cfg.NumTables == 1 {
		return lens
	}
	n := cfg.NumTables - 1
	ratio := 1.0
	if n > 1 {
		ratio = math.Pow(float64(cfg.MaxHist)/float64(cfg.MinHist), 1/float64(n-1))
	}
	prev := 0
	for i := 1; i < cfg.NumTables; i++ {
		l := int(float64(cfg.MinHist)*math.Pow(ratio, float64(i-1)) + 0.5)
		if l <= prev {
			l = prev + 1
		}
		lens[i] = l
		prev = l
	}
	return lens
}

// Tree exposes the adder tree so callers can add components (IMLI,
// local history) before use.
func (p *Predictor) Tree() *neural.Tree { return p.tree }

// Bank returns the folded-history bank holding this predictor's
// registers; the owner must Push it after every global history push.
func (p *Predictor) Bank() *hist.FoldedBank { return p.bank }

// Tables returns the global-history tables (for configuration, e.g.
// inserting the IMLI counter into some indices).
func (p *Predictor) Tables() []*neural.GlobalTable { return p.tables }

// Predict returns the predicted direction for pc. Must be followed by
// Update for the same pc before the next Predict. The PC is mixed once
// here; the stored context serves both the vote and the train pass.
func (p *Predictor) Predict(pc uint64) bool {
	p.lastCtx = neural.MakeCtx(pc, false)
	p.lastSum = p.tree.Sum(p.lastCtx)
	return p.lastSum >= 0
}

// Sum returns the adder-tree output of the last Predict (for
// confidence inspection).
func (p *Predictor) Sum() int { return p.lastSum }

// Update trains the predictor with the resolved outcome of the branch
// passed to the immediately preceding Predict, whose stored context
// and sum drive the training (the blank parameter keeps the
// pc-threading call shape of the other predictors).
func (p *Predictor) Update(_ uint64, taken bool) {
	p.tree.Train(p.lastCtx, taken, p.lastSum)
}

// StorageBits returns the predictor storage cost.
func (p *Predictor) StorageBits() int { return p.tree.StorageBits() }
