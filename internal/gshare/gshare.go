// Package gshare implements the gshare predictor (McFarling, 1993):
// a table of 2-bit counters indexed by PC XOR global history. Used as
// a mid-tier baseline in examples and for validating the simulator.
package gshare

import "repro/internal/num"

// Predictor is a gshare predictor with its own embedded global history
// register (gshare predates the decoupled speculative history
// structures in internal/hist and is simple enough not to need them).
type Predictor struct {
	ctr      []uint8
	mask     uint64
	histBits int
	hist     uint64
	ctrBits  int
}

// New returns a gshare predictor with entries entries (rounded up to a
// power of two) and histBits bits of global history.
func New(entries, histBits int) *Predictor {
	n := num.Pow2Ceil(entries)
	idxBits := num.Log2(n)
	if histBits > idxBits {
		histBits = idxBits
	}
	p := &Predictor{ctr: make([]uint8, n), mask: uint64(n - 1), histBits: histBits, ctrBits: 2}
	num.Fill(p.ctr, 2) // weakly taken
	return p
}

func (p *Predictor) index(pc uint64) uint64 {
	return ((pc >> 2) ^ p.hist) & p.mask
}

// Predict returns the predicted direction for pc.
func (p *Predictor) Predict(pc uint64) bool {
	return p.ctr[p.index(pc)] >= 2
}

// Update trains the indexed counter and shifts the outcome into the
// history register. Must be called with the same pc as the preceding
// Predict.
func (p *Predictor) Update(pc uint64, taken bool) {
	i := p.index(pc)
	p.ctr[i] = num.UUpdate(p.ctr[i], taken, p.ctrBits)
	p.hist <<= 1
	if taken {
		p.hist |= 1
	}
	p.hist &= (1 << uint(p.histBits)) - 1
}

// StorageBits returns the predictor storage cost.
func (p *Predictor) StorageBits() int { return len(p.ctr)*p.ctrBits + p.histBits }
