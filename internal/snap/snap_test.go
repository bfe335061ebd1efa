package snap

import (
	"strings"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	e := NewEncoder()
	e.Begin("prim", 3)
	e.U8(0xab)
	e.I8(-5)
	e.Bool(true)
	e.Bool(false)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-42)
	e.Int(-7)

	d := NewDecoder(e.Bytes())
	d.Expect("prim", 3)
	if got := d.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if got := d.I8(); got != -5 {
		t.Errorf("I8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := d.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Remaining() != 0 {
		t.Errorf("%d bytes left over", d.Remaining())
	}
}

func TestRoundTripSlices(t *testing.T) {
	u8 := []uint8{1, 2, 255}
	i8 := []int8{-128, 0, 127}
	u16 := []uint16{0, 0xffff, 42}
	u32 := []uint32{7, 0xffffffff}
	u64 := []uint64{0, 1 << 63}

	e := NewEncoder()
	e.Uint8s(u8)
	e.Int8s(i8)
	e.Uint16s(u16)
	e.Uint32s(u32)
	e.Uint64s(u64)

	d := NewDecoder(e.Bytes())
	g8 := make([]uint8, len(u8))
	gi8 := make([]int8, len(i8))
	g16 := make([]uint16, len(u16))
	g32 := make([]uint32, len(u32))
	g64 := make([]uint64, len(u64))
	d.Uint8s(g8)
	d.Int8s(gi8)
	d.Uint16s(g16)
	d.Uint32s(g32)
	d.Uint64s(g64)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range u8 {
		if g8[i] != u8[i] {
			t.Errorf("u8[%d] = %d", i, g8[i])
		}
	}
	for i := range i8 {
		if gi8[i] != i8[i] {
			t.Errorf("i8[%d] = %d", i, gi8[i])
		}
	}
	for i := range u16 {
		if g16[i] != u16[i] {
			t.Errorf("u16[%d] = %d", i, g16[i])
		}
	}
	for i := range u32 {
		if g32[i] != u32[i] {
			t.Errorf("u32[%d] = %d", i, g32[i])
		}
	}
	for i := range u64 {
		if g64[i] != u64[i] {
			t.Errorf("u64[%d] = %d", i, g64[i])
		}
	}
}

func TestSliceLengthMismatchFails(t *testing.T) {
	e := NewEncoder()
	e.Int8s([]int8{1, 2, 3})
	d := NewDecoder(e.Bytes())
	dst := make([]int8, 4)
	d.Int8s(dst)
	if d.Err() == nil {
		t.Fatal("length mismatch not detected")
	}
	if !strings.Contains(d.Err().Error(), "geometry") {
		t.Errorf("unhelpful error: %v", d.Err())
	}
}

func TestSectionMismatchFails(t *testing.T) {
	e := NewEncoder()
	e.Begin("tage", 1)
	d := NewDecoder(e.Bytes())
	d.Expect("gehl", 1)
	if d.Err() == nil {
		t.Fatal("section name mismatch not detected")
	}

	e2 := NewEncoder()
	e2.Begin("tage", 2)
	d2 := NewDecoder(e2.Bytes())
	d2.Expect("tage", 1)
	if d2.Err() == nil {
		t.Fatal("section version mismatch not detected")
	}
}

func TestTruncationIsStickyNotPanic(t *testing.T) {
	e := NewEncoder()
	e.U64(12345)
	data := e.Bytes()[:3]
	d := NewDecoder(data)
	if got := d.U64(); got != 0 {
		t.Errorf("truncated U64 = %d, want 0", got)
	}
	if d.Err() == nil {
		t.Fatal("truncation not detected")
	}
	// Every later read stays zero and keeps the first error.
	first := d.Err()
	if d.U32() != 0 || d.Bool() || d.Int() != 0 {
		t.Error("reads after error not zero")
	}
	if d.Err() != first {
		t.Error("sticky error was replaced")
	}
}

func TestVarLenBoundsAllocation(t *testing.T) {
	e := NewEncoder()
	e.U32(1 << 30) // absurd length claim, no payload
	d := NewDecoder(e.Bytes())
	if n := d.VarLen(5); n != 0 {
		t.Errorf("VarLen = %d, want 0", n)
	}
	if d.Err() == nil {
		t.Fatal("oversized variable length not detected")
	}
}

func TestDeterminism(t *testing.T) {
	build := func() []byte {
		e := NewEncoder()
		e.Begin("x", 1)
		e.Uint32s([]uint32{1, 2, 3})
		e.Int(99)
		return e.Bytes()
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Error("same state encoded to different bytes")
	}
}

func TestStringRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.String("")
	e.String("tage-sc-l+imli")
	e.String("päper/µarch\n")
	d := NewDecoder(e.Bytes())
	for _, want := range []string{"", "tage-sc-l+imli", "päper/µarch\n"} {
		if got := d.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d after round trip", d.Err(), d.Remaining())
	}
}

func TestStringBoundsAllocation(t *testing.T) {
	e := NewEncoder()
	e.U32(1 << 31) // absurd length claim, no payload
	d := NewDecoder(e.Bytes())
	if s := d.String(); s != "" {
		t.Errorf("String() = %q, want empty on corrupt length", s)
	}
	if d.Err() == nil {
		t.Fatal("oversized string length not detected")
	}
}

func TestSpanRoundTrip(t *testing.T) {
	// A span written by the encoder reads back as the same bytes, and
	// a pre-sized encoder writes what a bare one does.
	for _, e := range []*Encoder{NewEncoder(), NewEncoderSize(64), NewEncoderSize(-1)} {
		e.U8(7)
		copy(e.Span(3), []byte{1, 2, 3})
		e.Uint16s([]uint16{0xbeef})
		if got, want := e.Bytes(), []byte{7, 1, 2, 3, 1, 0, 0, 0, 0xef, 0xbe}; string(got) != string(want) {
			t.Errorf("encoded % x, want % x", got, want)
		}
		d := NewDecoder(e.Bytes())
		d.U8()
		if got := d.Span(3); string(got) != "\x01\x02\x03" || d.Err() != nil {
			t.Errorf("Span(3) = % x, err %v", got, d.Err())
		}
	}
}

func TestSpanFailsWithoutPanic(t *testing.T) {
	for _, n := range []int{-1, 5} {
		d := NewDecoder([]byte{1, 2, 3, 4})
		if got := d.Span(n); got != nil || d.Err() == nil {
			t.Errorf("Span(%d) over 4 bytes = % x, err %v; want nil and an error", n, got, d.Err())
		}
		if d.Span(1) != nil || d.U8() != 0 {
			t.Errorf("Span(%d): reads after the error are not empty", n)
		}
	}
}
