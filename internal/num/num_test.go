package num

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSatIncrSaturates(t *testing.T) {
	for _, bits := range []int{2, 3, 5, 6, 8} {
		max := int8(1<<(bits-1) - 1)
		c := int8(0)
		for i := 0; i < 1<<uint(bits)+5; i++ {
			c = SatIncr(c, bits)
		}
		if c != max {
			t.Errorf("bits=%d: saturated at %d, want %d", bits, c, max)
		}
		// One more increment must not move it.
		if got := SatIncr(c, bits); got != max {
			t.Errorf("bits=%d: moved past saturation to %d", bits, got)
		}
	}
}

func TestSatDecrSaturates(t *testing.T) {
	for _, bits := range []int{2, 3, 5, 6, 8} {
		min := int8(-(1 << (bits - 1)))
		c := int8(0)
		for i := 0; i < 1<<uint(bits)+5; i++ {
			c = SatDecr(c, bits)
		}
		if c != min {
			t.Errorf("bits=%d: saturated at %d, want %d", bits, c, min)
		}
		if got := SatDecr(c, bits); got != min {
			t.Errorf("bits=%d: moved past saturation to %d", bits, got)
		}
	}
}

func TestSatUpdateDirection(t *testing.T) {
	if got := SatUpdate(0, true, 6); got != 1 {
		t.Errorf("SatUpdate(0,true) = %d, want 1", got)
	}
	if got := SatUpdate(0, false, 6); got != -1 {
		t.Errorf("SatUpdate(0,false) = %d, want -1", got)
	}
}

func TestSatRangeInvariant(t *testing.T) {
	// Property: any sequence of updates keeps the counter in range.
	f := func(start int8, ops []bool) bool {
		const bits = 5
		c := start
		if c > 15 {
			c = 15
		}
		if c < -16 {
			c = -16
		}
		for _, taken := range ops {
			c = SatUpdate(c, taken, bits)
			if c < -16 || c > 15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUIncrUDecr(t *testing.T) {
	c := uint8(0)
	for i := 0; i < 10; i++ {
		c = UIncr(c, 2)
	}
	if c != 3 {
		t.Errorf("2-bit UIncr saturated at %d, want 3", c)
	}
	for i := 0; i < 10; i++ {
		c = UDecr(c)
	}
	if c != 0 {
		t.Errorf("UDecr bottomed at %d, want 0", c)
	}
}

func TestUUpdateFullWidth(t *testing.T) {
	c := uint8(0)
	for i := 0; i < 300; i++ {
		c = UUpdate(c, true, 8)
	}
	if c != 255 {
		t.Errorf("8-bit UUpdate saturated at %d, want 255", c)
	}
}

func TestCentered(t *testing.T) {
	cases := []struct {
		in   int8
		want int
	}{{0, 1}, {-1, -1}, {3, 7}, {-4, -7}, {31, 63}, {-32, -63}}
	for _, c := range cases {
		if got := Centered(c.in); got != c.want {
			t.Errorf("Centered(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(8)
	same := 0
	a2 := NewRand(7)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a dead generator")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestProbBounds(t *testing.T) {
	r := NewRand(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Prob(0.25) {
			hits++
		}
	}
	got := float64(hits) / n
	if got < 0.23 || got > 0.27 {
		t.Errorf("Prob(0.25) frequency = %.4f, want ~0.25", got)
	}
	r2 := NewRand(12)
	for i := 0; i < 100; i++ {
		if r2.Prob(0) {
			t.Fatal("Prob(0) returned true")
		}
		if !r2.Prob(1.1) {
			t.Fatal("Prob(>1) returned false")
		}
	}
}

func TestMixIsBijectiveish(t *testing.T) {
	// Mix must not collapse small distinct inputs.
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 100000; i++ {
		h := Mix(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Mix collision: Mix(%d) == Mix(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 1024: 10, 1025: 10, 0: 0, -5: 0}
	for in, want := range cases {
		if got := Log2(in); got != want {
			t.Errorf("Log2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPow2Ceil(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := Pow2Ceil(in); got != want {
			t.Errorf("Pow2Ceil(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPow2CeilLog2Property(t *testing.T) {
	f := func(n uint16) bool {
		v := Pow2Ceil(int(n))
		// v is a power of two and >= n.
		return v >= int(n) && v&(v-1) == 0 && (v == 1 || Pow2Ceil(v) == v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFillMatchesLoop: Fill's doubling copies must leave exactly what
// a per-element loop does, at the lengths where the last copy is
// partial (3, 65537), whole (2, 65536) or absent (1).
func TestFillMatchesLoop(t *testing.T) {
	for _, n := range []int{1, 2, 3, 65536, 65537} {
		got, want := make([]uint8, n), make([]uint8, n)
		for i := range got {
			got[i] = uint8(i * 7) // stale contents Fill must overwrite
		}
		Fill(got, 2)
		for i := range want {
			want[i] = 2
		}
		if !slices.Equal(got, want) {
			t.Errorf("Fill over %d elements differs from a per-element loop", n)
		}
	}
}
