package sim

import (
	"fmt"

	"repro/internal/predictor"
	"repro/internal/snap"
)

// SpecMode selects how the speculative pipeline model manages branch
// history between prediction and resolution (§2.3 of the paper).
type SpecMode uint8

const (
	// SpecImmediate updates histories with the resolved outcome only
	// (the idealised trace-driven methodology; the reference).
	SpecImmediate SpecMode = iota
	// SpecCheckpointed updates histories speculatively with the
	// predicted direction at fetch and repairs mispredictions by
	// restoring the per-branch checkpoint (global history pointer,
	// IMLI counter, PIPE vector) — the hardware scheme the paper
	// advocates. Must be prediction-for-prediction identical to
	// SpecImmediate.
	SpecCheckpointed
	// SpecUnrepaired updates histories speculatively but never repairs
	// them after a misprediction — what a design without checkpointing
	// would suffer. Quantifies why speculative history management
	// matters (§2.3: "using incorrect histories ... is very likely to
	// result in many branch mispredictions").
	SpecUnrepaired
)

// String names the mode.
func (m SpecMode) String() string {
	switch m {
	case SpecImmediate:
		return "immediate"
	case SpecCheckpointed:
		return "checkpointed"
	case SpecUnrepaired:
		return "unrepaired"
	default:
		return "spec?"
	}
}

// specPredictor is a composite whose Train runs a speculative-history
// mode's update protocol. It declares Snapshot and RestoreSnapshot,
// its composite's, so that snapcomplete checks its own fields; the
// engine pools, resumes and chains it under its name.
type specPredictor struct {
	*predictor.Composite
	mode SpecMode
	name string
	// pred is Predict's direction, the one Train pushes at fetch.
	pred bool //lint:allow snapcomplete Predict-to-Train scratch, dead at branch-boundary snapshot points
}

// NewSpecPredictor builds the registry configuration config, which
// must be a composite, training under mode. Its name is config/mode,
// for example "tage-gsc+imli/unrepaired".
func NewSpecPredictor(config string, mode SpecMode) (predictor.Predictor, error) {
	if mode > SpecUnrepaired {
		return nil, fmt.Errorf("sim: unknown speculative-history mode %d", mode)
	}
	c, err := composite(config)
	if err != nil {
		return nil, err
	}
	return &specPredictor{Composite: c, mode: mode, name: config + "/" + mode.String()}, nil
}

// composite builds config, whose speculative hooks need a composite.
func composite(config string) (*predictor.Composite, error) {
	p, err := predictor.New(config)
	if c, ok := p.(*predictor.Composite); ok || err != nil {
		return c, err
	}
	return nil, fmt.Errorf("sim: configuration %q does not support speculative simulation", config)
}

func (p *specPredictor) Name() string { return p.name }

func (p *specPredictor) Predict(pc uint64) bool {
	p.pred = p.Composite.Predict(pc)
	return p.pred
}

// Train resolves the branch Predict saw under the wrapper's mode.
func (p *specPredictor) Train(pc, target uint64, taken bool) {
	switch p.mode {
	case SpecImmediate:
		p.Composite.Train(pc, target, taken)
	case SpecCheckpointed:
		p.TrainTables(pc, target, taken)
		// Fetch side: checkpoint the speculative history state, then
		// push the predicted direction.
		ck := p.SpecCheckpoint()
		p.SpecPush(pc, target, p.pred)
		if p.pred != taken {
			// Resolve: restore and redo with the actual outcome.
			p.SpecRestore(ck)
			p.SpecPush(pc, target, taken)
		}
	case SpecUnrepaired:
		p.TrainTables(pc, target, taken)
		p.SpecPush(pc, target, p.pred) // wrong-path bit stays
	}
}

func (p *specPredictor) Snapshot(e *snap.Encoder) { p.Composite.Snapshot(e) }

func (p *specPredictor) RestoreSnapshot(d *snap.Decoder) error { return p.Composite.RestoreSnapshot(d) }
