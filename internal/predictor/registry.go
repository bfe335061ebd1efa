package predictor

import (
	"repro/internal/bimodal"
	"repro/internal/gshare"
	"repro/internal/loop"
	"repro/internal/trace"
)

// The registry holds every configuration the paper's evaluation uses,
// under stable names shared by the simulator, the experiments and the
// CLI:
//
//	tage-gsc              §3.2.1 reference (Base)
//	tage-gsc+sic          Base + IMLI-SIC only (§4.2)
//	tage-gsc+imli         Base + IMLI-SIC + IMLI-OH (Base+I)
//	tage-gsc+wh           Base + wormhole (§3.3)
//	tage-gsc+sic+wh       §4.3 intro experiment
//	tage-gsc+oh           Base + IMLI-OH only (Figure 13 companion)
//	tage-sc-l             Base + local + loop (Base+L)
//	tage-sc-l+imli        Base+I+L (Table 1) and the §5 "record" config
//	tage-gsc+loop16       Base + 16-entry loop predictor only (§2.3.3)
//	gehl, gehl+sic, gehl+imli, gehl+wh, gehl+oh, gehl+sic+wh,
//	gehl+l (FTL-style), gehl+imli+l (Table 2)
//	bimodal, gshare       sanity baselines
func init() {
	reg := func(name string, opts Options) {
		opts.name = name
		Register(name, func() Predictor { return NewComposite(opts) })
	}

	reg("tage-gsc", Options{Base: BaseTAGEGSC})
	reg("tage-gsc+sic", Options{Base: BaseTAGEGSC, IMLISIC: true})
	reg("tage-gsc+imli", Options{Base: BaseTAGEGSC, IMLISIC: true, IMLIOH: true, IMLIIndexInsert: true})
	reg("tage-gsc+oh", Options{Base: BaseTAGEGSC, IMLIOH: true})
	reg("tage-gsc+wh", Options{Base: BaseTAGEGSC, Wormhole: true})
	reg("tage-gsc+sic+wh", Options{Base: BaseTAGEGSC, IMLISIC: true, Wormhole: true})
	reg("tage-sc-l", Options{Base: BaseTAGEGSC, Local: true, LoopUse: true})
	reg("tage-sc-l+imli", Options{Base: BaseTAGEGSC, Local: true, LoopUse: true, IMLISIC: true, IMLIOH: true, IMLIIndexInsert: true})
	reg("tage-gsc+loop16", Options{Base: BaseTAGEGSC, LoopUse: true, LoopConfig: loop.Config{Sets: 4, Ways: 4}})
	reg("tage-gsc+imli+loop", Options{Base: BaseTAGEGSC, IMLISIC: true, IMLIOH: true, IMLIIndexInsert: true, LoopUse: true})
	reg("tage-gsc+loop", Options{Base: BaseTAGEGSC, LoopUse: true})
	reg("tage-gsc+sic+loop", Options{Base: BaseTAGEGSC, IMLISIC: true, LoopUse: true})

	reg("gehl", Options{Base: BaseGEHL})
	reg("gehl+sic", Options{Base: BaseGEHL, IMLISIC: true})
	reg("gehl+imli", Options{Base: BaseGEHL, IMLISIC: true, IMLIOH: true})
	reg("gehl+oh", Options{Base: BaseGEHL, IMLIOH: true})
	reg("gehl+wh", Options{Base: BaseGEHL, Wormhole: true})
	reg("gehl+sic+wh", Options{Base: BaseGEHL, IMLISIC: true, Wormhole: true})
	reg("gehl+l", Options{Base: BaseGEHL, Local: true, LoopUse: true})
	reg("gehl+imli+l", Options{Base: BaseGEHL, Local: true, LoopUse: true, IMLISIC: true, IMLIOH: true})

	Register("bimodal", func() Predictor { return newBimodalAdapter() })
	Register("gshare", func() Predictor { return newGshareAdapter() })
}

// bimodalAdapter lifts the bimodal table to the Predictor interface.
type bimodalAdapter struct{ t *bimodal.Table }

func newBimodalAdapter() *bimodalAdapter { return &bimodalAdapter{t: bimodal.New(16384, 2)} }

func (b *bimodalAdapter) Name() string           { return "bimodal" }
func (b *bimodalAdapter) Predict(pc uint64) bool { return b.t.Predict(pc) }
func (b *bimodalAdapter) StorageBits() int       { return b.t.StorageBits() }
func (b *bimodalAdapter) Train(pc, target uint64, taken bool) {
	b.t.Update(pc, taken)
}
func (b *bimodalAdapter) TrackOther(pc, target uint64, kind trace.Kind, taken bool) {}

// gshareAdapter lifts gshare to the Predictor interface.
type gshareAdapter struct{ p *gshare.Predictor }

func newGshareAdapter() *gshareAdapter { return &gshareAdapter{p: gshare.New(65536, 16)} }

func (g *gshareAdapter) Name() string           { return "gshare" }
func (g *gshareAdapter) Predict(pc uint64) bool { return g.p.Predict(pc) }
func (g *gshareAdapter) StorageBits() int       { return g.p.StorageBits() }
func (g *gshareAdapter) Train(pc, target uint64, taken bool) {
	g.p.Update(pc, taken)
}
func (g *gshareAdapter) TrackOther(pc, target uint64, kind trace.Kind, taken bool) {}
