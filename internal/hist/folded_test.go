package hist

// Folded is the one-register reference for FoldedBank: a cyclic shift
// register that compresses the most recent histLen bits of global
// history into width bits. Its update states the fold step by step;
// FoldedBank.Push restates it as branch-free ALU work over many
// registers, and the bank's property tests check the two bit-equal.
//
// The invariant (checked by TestFoldedMatchesReference) is that Value()
// equals Fold of the last histLen history bits into width bits.
type Folded struct {
	value   uint32
	histLen int
	width   int
	outPos  int // position where the oldest bit falls when it exits
}

// NewFolded returns a folded history of the given original length
// compressed into width bits. width must be in [1,32].
func NewFolded(histLen, width int) *Folded {
	if width < 1 || width > 32 {
		panic("hist: folded width out of range")
	}
	if histLen < 0 {
		panic("hist: negative history length")
	}
	return &Folded{histLen: histLen, width: width, outPos: histLen % width}
}

// Update rotates in the newest history bit and rotates out the bit
// that just fell off the end of the histLen window. g must be the
// global history after the newest outcome was pushed.
func (f *Folded) Update(g *Global) {
	if f.histLen == 0 {
		return // an empty window folds to zero forever
	}
	newest := uint32(g.Bit(0))
	f.value = (f.value << 1) | newest
	// The bit that exits the window was pushed histLen outcomes ago.
	oldest := uint32(g.Bit(f.histLen))
	f.value ^= oldest << uint(f.outPos)
	// Wrap the bit rotated past the top back to the bottom.
	f.value ^= (f.value >> uint(f.width)) & 1
	f.value &= (1 << uint(f.width)) - 1
}

// Value returns the folded history.
func (f *Folded) Value() uint32 { return f.value }

// Reset recomputes the folded value from scratch out of the global
// history, as after a speculative-history restore.
func (f *Folded) Reset(g *Global) {
	f.value = Fold(g, f.histLen, f.width)
}
