package hist

// Fold computes, non-incrementally, the width-bit fold of the last
// histLen bits of g: the cyclic shift register introduced by Michaud
// for PPM-like predictors, which TAGE uses to compute table indices and
// tags in O(1) per branch instead of re-hashing the whole history.
// History bit i (0 = most recent) lands at position (i mod width), with
// a rotation applied per insertion. FoldedBank.Push maintains the same
// value incrementally; Reset and ResetAll recompute it with Fold.
func Fold(g *Global, histLen, width int) uint32 {
	var v uint32
	// Replay insertions oldest-to-newest the same way Push does.
	for i := histLen - 1; i >= 0; i-- {
		v = (v << 1) | uint32(g.Bit(i))
		v ^= (v >> uint(width)) & 1
		v &= (1 << uint(width)) - 1
	}
	return v
}
