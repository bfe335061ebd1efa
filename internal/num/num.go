// Package num provides the small numeric building blocks shared by all
// predictor components: saturating counters, a deterministic xorshift
// PRNG (predictor allocation policies need cheap randomness without
// pulling in math/rand state), and hash mixing for table indexing.
package num

// SatIncr increments a signed saturating counter of the given bit
// width (counter range is [-2^(bits-1), 2^(bits-1)-1]).
func SatIncr(c int8, bits int) int8 {
	max := (1 << (bits - 1)) - 1
	if int(c) < max {
		return c + 1
	}
	return c
}

// SatDecr decrements a signed saturating counter of the given width.
func SatDecr(c int8, bits int) int8 {
	min := -(1 << (bits - 1))
	if int(c) > min {
		return c - 1
	}
	return c
}

// SatUpdate moves a signed saturating counter toward taken.
func SatUpdate(c int8, taken bool, bits int) int8 {
	if taken {
		return SatIncr(c, bits)
	}
	return SatDecr(c, bits)
}

// UIncr increments an unsigned saturating counter of the given width.
func UIncr(c uint8, bits int) uint8 {
	max := (1 << bits) - 1
	if int(c) < max {
		return c + 1
	}
	return c
}

// UDecr decrements an unsigned saturating counter toward zero.
func UDecr(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}

// UUpdate moves a 2-bit-style unsigned counter toward taken.
func UUpdate(c uint8, taken bool, bits int) uint8 {
	if taken {
		return UIncr(c, bits)
	}
	return UDecr(c)
}

// Centered returns the centered value 2c+1 of a signed counter, the
// form neural predictors sum so that a zero-information counter still
// votes ±1.
func Centered(c int8) int { return 2*int(c) + 1 }

// Rand is a deterministic xorshift64* PRNG. The zero value is not
// valid; use NewRand.
type Rand struct{ s uint64 }

// NewRand returns a PRNG seeded with seed (0 is remapped).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{s: seed}
}

// State returns the PRNG's internal state, for predictor-state
// snapshots (allocation policies consume randomness, so resuming a
// simulation bit-exactly requires resuming the PRNG).
func (r *Rand) State() uint64 { return r.s }

// SetState restores a state previously captured with State. A zero
// value is remapped like a zero seed (xorshift has a fixed point at 0,
// but no reachable state is ever 0, so this only defends bad input).
func (r *Rand) SetState(s uint64) {
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	r.s = s
}

// Uint64 returns the next pseudo-random value.
func (r *Rand) Uint64() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0,n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("num: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns a pseudo-random bit.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Prob returns true with probability p.
func (r *Rand) Prob(p float64) bool {
	return float64(r.Uint64()>>11)/float64(1<<53) < p
}

// Mix hashes a 64-bit value (SplitMix64 finaliser); used to spread PC
// bits before folding into table indices.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Log2 returns floor(log2(n)) for n >= 1, and 0 for n < 1.
func Log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Pow2Ceil rounds n up to the next power of two (minimum 1).
func Pow2Ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Fill sets every element of s to v. It writes the first element and
// then doubles the filled prefix with copy, so initialising a large
// counter table costs a handful of memmoves instead of one store per
// element.
func Fill[T any](s []T, v T) {
	if len(s) == 0 {
		return
	}
	s[0] = v
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}
