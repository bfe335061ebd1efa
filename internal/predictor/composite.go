package predictor

import (
	"repro/internal/core"
	"repro/internal/gehl"
	"repro/internal/hist"
	"repro/internal/local"
	"repro/internal/loop"
	"repro/internal/sc"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/wormhole"
)

// Base selects the main global-history predictor of a composite.
type Base uint8

const (
	// BaseTAGEGSC is TAGE backed by a global-history statistical
	// corrector (the paper's Figure 4 reference).
	BaseTAGEGSC Base = iota
	// BaseGEHL is the neural-family reference (§3.2.2).
	BaseGEHL
)

// Options selects the optional components of a composite predictor,
// mirroring the paper's Base / +I / +L / +WH configuration axes.
type Options struct {
	Base Base
	// IMLISIC adds the IMLI-SIC table to the neural tree (§4.2).
	IMLISIC bool
	// IMLIOH adds the IMLI-OH component (§4.3).
	IMLIOH bool
	// IMLIIndexInsert additionally hashes the IMLI counter into the
	// indices of two global SC tables (§4.2 refinement; TAGE-GSC only).
	IMLIIndexInsert bool
	// Local adds the local-history component group to the neural tree.
	Local bool
	// LoopUse makes the loop predictor override the prediction when
	// confident (as in TAGE-SC-L). The loop predictor is also
	// instantiated, without overriding, whenever Wormhole is set.
	LoopUse bool
	// LoopConfig overrides the loop predictor geometry (zero value =
	// default 64-entry predictor).
	LoopConfig loop.Config
	// Wormhole adds the WH side predictor (needs the loop predictor
	// for trip counts).
	Wormhole bool
	// OHDelay delays IMLI outer-history table writes by this many
	// conditional branches (the §4.3.2 delayed-update experiment).
	OHDelay int

	// SICCfg, OHCfg and WHCfg override component geometries for the
	// ablation experiments; nil selects the paper defaults.
	SICCfg *core.SICConfig
	OHCfg  *core.OHConfig
	WHCfg  *wormhole.Config
	// IMLIBits overrides the IMLI counter width (0 = paper default).
	IMLIBits int
	// TageCfg overrides the TAGE geometry (the storage-scaling
	// experiment); nil selects the paper default.
	TageCfg *tage.Config

	name string
}

// Composite is a fully wired predictor configuration.
type Composite struct {
	opts Options

	g    *hist.Global
	path *hist.Path
	// bank holds every folded history register of every component in
	// one contiguous block, advanced by a single Push per branch.
	bank *hist.FoldedBank

	// base predictors (exactly one non-nil)
	tage *tage.Predictor
	gsc  *sc.Corrector
	gehl *gehl.Predictor

	// optional components
	imli *core.IMLI
	sic  *core.SIC
	oh   *core.OH
	loc  *local.Group
	lp   *loop.Predictor
	wh   *wormhole.Predictor

	// per-branch state between Predict and Train
	lastTage  tage.Prediction //lint:allow snapcomplete Predict-to-Train scratch, dead at branch-boundary snapshot points
	lastFinal bool            //lint:allow snapcomplete Predict-to-Train scratch, dead at branch-boundary snapshot points

	// locDetached suppresses the built-in commit of local history so
	// the §2.3.2 pipeline model can own it (DetachLocalHistory).
	//lint:allow snapcomplete wiring flag set once by DetachLocalHistory at setup
	locDetached bool
}

// NewComposite wires a configuration.
func NewComposite(opts Options) *Composite {
	c := &Composite{opts: opts}
	c.g = hist.NewGlobal(2048)
	c.path = hist.NewPath(32)
	c.bank = hist.NewFoldedBank()

	imliNeeded := opts.IMLISIC || opts.IMLIOH || opts.IMLIIndexInsert
	if imliNeeded {
		if opts.IMLIBits > 0 {
			c.imli = core.NewIMLIBits(opts.IMLIBits)
		} else {
			c.imli = core.NewIMLI()
		}
	}
	if opts.IMLISIC {
		cfg := core.DefaultSICConfig()
		if opts.SICCfg != nil {
			cfg = *opts.SICCfg
		}
		c.sic = core.NewSIC(cfg, c.imli)
	}
	if opts.IMLIOH {
		cfg := core.DefaultOHConfig()
		if opts.OHCfg != nil {
			cfg = *opts.OHCfg
		}
		c.oh = core.NewOH(cfg, c.imli)
		if opts.OHDelay > 0 {
			c.oh.SetUpdateDelay(opts.OHDelay)
		}
	}
	if opts.Local {
		cfg := local.DefaultConfig()
		if opts.Base == BaseTAGEGSC {
			cfg = local.SmallConfig()
		}
		c.loc = local.NewGroup(cfg)
	}
	if opts.LoopUse || opts.Wormhole {
		c.lp = loop.New(opts.LoopConfig)
	}

	switch opts.Base {
	case BaseTAGEGSC:
		tcfg := tage.DefaultConfig()
		if opts.TageCfg != nil {
			tcfg = *opts.TageCfg
		}
		c.tage = tage.New(tcfg, c.g, c.path, c.bank)
		c.gsc = sc.New(sc.DefaultConfig(), c.path, c.bank)
		tree := c.gsc.Tree()
		if c.sic != nil {
			tree.Add(c.sic)
		}
		if c.oh != nil {
			tree.Add(c.oh)
		}
		if c.loc != nil {
			for _, comp := range c.loc.Components() {
				tree.Add(comp)
			}
		}
		if opts.IMLIIndexInsert {
			gt := c.gsc.GlobalTables()
			imli := c.imli
			for i := 0; i < 2 && i < len(gt); i++ {
				gt[len(gt)-1-i].SetExtraIndex(func() uint64 { return uint64(imli.Count()) })
			}
		}
	case BaseGEHL:
		c.gehl = gehl.New(gehl.DefaultConfig(), c.path, c.bank)
		tree := c.gehl.Tree()
		if c.sic != nil {
			tree.Add(c.sic)
		}
		if c.oh != nil {
			tree.Add(c.oh)
		}
		if c.loc != nil {
			for _, comp := range c.loc.Components() {
				tree.Add(comp)
			}
		}
	}
	if opts.Wormhole {
		cfg := wormhole.DefaultConfig()
		if opts.WHCfg != nil {
			cfg = *opts.WHCfg
		}
		c.wh = wormhole.New(cfg, c.lp)
	}
	return c
}

// NewCustom builds a composite with explicit options under the given
// display name (used by ablation experiments).
func NewCustom(name string, opts Options) *Composite {
	opts.name = name
	return NewComposite(opts)
}

// Name implements Predictor.
func (c *Composite) Name() string { return c.opts.name }

// Predict implements Predictor: the base predictor's direction (TAGE
// refined by the statistical corrector, or GEHL), overridden by a
// confident loop predictor when the configuration uses it, then by the
// wormhole predictor when it claims the branch.
func (c *Composite) Predict(pc uint64) bool {
	var pred bool
	if c.tage != nil {
		c.lastTage = c.tage.Predict(pc)
		pred = c.gsc.Predict(pc, c.lastTage)
	} else {
		pred = c.gehl.Predict(pc)
	}
	if c.lp != nil {
		if lpred, valid := c.lp.Predict(pc); valid && c.opts.LoopUse {
			pred = lpred
		}
	}
	if c.wh != nil {
		if wpred, use := c.wh.Predict(pc); use {
			pred = wpred
		}
	}
	c.lastFinal = pred
	return pred
}

// PredictStage1, PredictStage2 and PredictStage3 exist only for the
// per-stage probes of bench/imliperf, which time them and check that
// they mispredict exactly as Predict does. PredictStage1 runs the whole
// Predict, PredictStage2 does nothing and PredictStage3 returns the
// prediction. They go when those probes become one predict_ns probe
// (ROADMAP, bench item).
func (c *Composite) PredictStage1(pc uint64) { c.Predict(pc) }

// PredictStage2 does nothing; see PredictStage1.
func (c *Composite) PredictStage2() {}

// PredictStage3 returns the last Predict's direction; see
// PredictStage1.
func (c *Composite) PredictStage3() bool { return c.lastFinal }

// Train implements Predictor: the immediate-update path used by the
// trace-driven simulator — table training followed by the history push
// with the resolved outcome. The speculative modes of
// sim.NewSpecPredictor call TrainTables and SpecPush separately.
func (c *Composite) Train(pc, target uint64, taken bool) {
	c.TrainTables(pc, target, taken)
	c.SpecPush(pc, target, taken)
}

// TrackOther implements Predictor: non-conditional branches still
// steer the global path context.
func (c *Composite) TrackOther(pc, target uint64, kind trace.Kind, taken bool) {
	// Push a target-derived bit so indirect control flow enriches the
	// history, as path-history predictors do.
	c.pushHistory((target>>2)&1 == 1, pc)
}

func (c *Composite) pushHistory(bit bool, pc uint64) {
	c.g.Push(bit)
	c.path.Push(pc)
	c.bank.Push(c.g)
}

// StorageBits implements Predictor.
func (c *Composite) StorageBits() int {
	total := 0
	for _, it := range c.StorageBreakdown() {
		total += it.Bits
	}
	return total
}

// StorageBreakdown itemises StorageBits by component (the storage
// experiment's budget report).
func (c *Composite) StorageBreakdown() []StorageItem {
	var items []StorageItem
	if c.tage != nil {
		items = append(items, StorageItem{"tage", c.tage.StorageBits()})
		items = append(items, StorageItem{"gsc", c.gsc.StorageBits()})
	}
	if c.gehl != nil {
		items = append(items, StorageItem{"gehl", c.gehl.StorageBits()})
	}
	// The neural-tree StorageBits above already include plugged-in
	// components; itemise them separately and subtract to avoid double
	// counting.
	var plugged int
	if c.sic != nil {
		items = append(items, StorageItem{"imli-sic", c.sic.StorageBits()})
		plugged += c.sic.StorageBits()
	}
	if c.oh != nil {
		items = append(items, StorageItem{"imli-oh", c.oh.StorageBits()})
		plugged += c.oh.StorageBits()
	}
	if c.imli != nil {
		items = append(items, StorageItem{"imli-counter", c.imli.StorageBits()})
	}
	if c.loc != nil {
		items = append(items, StorageItem{"local", c.loc.StorageBits()})
		for _, comp := range c.loc.Components() {
			plugged += comp.StorageBits()
		}
	}
	if c.lp != nil {
		items = append(items, StorageItem{"loop", c.lp.StorageBits()})
	}
	if c.wh != nil {
		items = append(items, StorageItem{"wormhole", c.wh.StorageBits()})
	}
	// Subtract plugged component bits from the base tree entries.
	for i := range items {
		if items[i].Name == "gsc" || items[i].Name == "gehl" {
			items[i].Bits -= plugged
		}
	}
	return items
}

// CheckpointBits is the hardware width of one per-fetch-block
// speculative checkpoint: the global history pointer, plus the IMLI
// counter and the OH PIPE vector when configured (the §4.4 argument).
func (c *Composite) CheckpointBits() int {
	bits := c.g.CheckpointBits() // speculative global history pointer
	if c.imli != nil {
		bits += c.imli.StorageBits()
	}
	if c.oh != nil {
		bits += 16 // PIPE vector
	}
	return bits
}

// SpeculativeSearchBits returns the local-history bits that must ride
// in the in-flight window for this configuration (0 when no local or
// WH component is present) — the §2.3 cost the IMLI design avoids.
func (c *Composite) SpeculativeSearchBits() int {
	bits := 0
	if c.loc != nil {
		bits += c.loc.History().Bits()
	}
	if c.wh != nil {
		bits += c.wh.SpeculativeHistBits()
	}
	return bits
}
