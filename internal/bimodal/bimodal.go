// Package bimodal implements the classic bimodal predictor (Smith,
// 1981): a table of 2-bit saturating counters indexed by PC. It serves
// both as a standalone baseline and as the base (history length 0)
// table of the TAGE predictor.
package bimodal

import "repro/internal/num"

// Table is a bimodal prediction table.
type Table struct {
	ctr  []uint8
	mask uint64
	bits int
}

// New returns a bimodal table with entries entries (rounded up to a
// power of two) of bits-bit unsigned counters initialised to weakly
// not-taken / weakly taken boundary.
func New(entries, bits int) *Table {
	if bits < 1 || bits > 8 {
		panic("bimodal: counter bits out of range")
	}
	n := num.Pow2Ceil(entries)
	t := &Table{ctr: make([]uint8, n), mask: uint64(n - 1), bits: bits}
	num.Fill(t.ctr, uint8(1<<(bits-1))) // weakly taken boundary
	return t
}

func (t *Table) index(pc uint64) uint64 { return (pc >> 2) & t.mask }

// Predict returns the predicted direction for pc.
func (t *Table) Predict(pc uint64) bool {
	return t.ctr[t.index(pc)] >= uint8(1<<(t.bits-1))
}

// Confident reports whether the counter is saturated away from the
// midpoint (strongly taken or strongly not-taken).
func (t *Table) Confident(pc uint64) bool {
	c := t.ctr[t.index(pc)]
	return c == 0 || int(c) == (1<<t.bits)-1
}

// Update trains the counter for pc toward the outcome.
func (t *Table) Update(pc uint64, taken bool) {
	i := t.index(pc)
	t.ctr[i] = num.UUpdate(t.ctr[i], taken, t.bits)
}

// Entries returns the table size.
func (t *Table) Entries() int { return len(t.ctr) }

// StorageBits returns the table storage cost.
func (t *Table) StorageBits() int { return len(t.ctr) * t.bits }
