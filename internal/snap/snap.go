// Package snap is the uniform predictor-state snapshot codec: a small,
// versioned, deterministic binary encoding that every stateful
// component of a composed predictor serializes itself through
// (DESIGN.md §8). The simulation engine uses it to persist full
// predictor state at stream positions, so a longer-budget run of the
// same (config, trace, seed) resumes from a cached prefix instead of
// re-training from record 0, and so sharded runs can chain boundary
// snapshots into a bit-exact partition of the unsharded run.
//
// Design rules:
//
//   - The encoding is deterministic: the same state always produces the
//     same bytes (fixed-width little-endian integers, length-prefixed
//     slices, no maps, no reflection). Snapshot equality is therefore
//     byte equality, which the property tests exploit.
//   - Every component writes a named, versioned section header
//     (Encoder.Begin) and checks it on restore (Decoder.Expect), so a
//     snapshot taken by a structurally different configuration — or by
//     a future component version — fails loudly instead of restoring
//     garbage.
//   - Decoding never panics on malformed input: the Decoder carries a
//     sticky error, primitives return zero once it is set, and slice
//     helpers enforce the exact length the restoring instance expects
//     (component geometry is construction-time configuration, not
//     snapshot payload).
package snap

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Snapshotter is implemented by every component that can serialize its
// full mutable state. The contract: Snapshot at a branch boundary
// (between one branch's Train and the next branch's Predict),
// RestoreSnapshot into any instance of the identical configuration —
// freshly constructed, or one that has already simulated, since a
// restore overwrites every mutable field. After a restore, continued
// simulation is prediction-for-prediction identical to the
// uninterrupted run. The simulation engine relies on the second case:
// it resets a used predictor by restoring the snapshot its
// configuration had when built (DESIGN.md §5).
type Snapshotter interface {
	// Snapshot appends the component's state to the encoder.
	Snapshot(*Encoder)
	// RestoreSnapshot reads the state back in the same order. It
	// returns the decoder's first error, if any; on error the
	// component's state is unspecified and the instance must be
	// discarded.
	RestoreSnapshot(*Decoder) error
}

// Encoder builds a snapshot byte stream.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// NewEncoderSize returns an empty encoder whose buffer holds n bytes
// before it first grows. Callers that know roughly how large a
// snapshot will be (the previous snapshot of the same predictor)
// encode it with one allocation.
func NewEncoderSize(n int) *Encoder { return &Encoder{buf: make([]byte, 0, max(n, 0))} }

// Bytes returns the encoded stream.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Span appends n bytes to the stream and returns them for the caller
// to fill; the caller must write every one of them. A table encoded
// through one span costs one capacity check instead of one append per
// field.
func (e *Encoder) Span(n int) []byte {
	e.buf = slices.Grow(e.buf, n)
	start := len(e.buf)
	e.buf = e.buf[:start+n]
	return e.buf[start:]
}

// Begin writes a section header: the component name and its format
// version. Decoder.Expect verifies both.
func (e *Encoder) Begin(name string, version uint8) {
	if len(name) > 255 {
		panic("snap: section name too long")
	}
	e.U8(uint8(len(name)))
	e.buf = append(e.buf, name...)
	e.U8(version)
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// I8 appends a signed byte.
func (e *Encoder) I8(v int8) { e.U8(uint8(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a signed 64-bit value (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as 64 bits.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// String appends a length-prefixed string. Strings are
// variable-length by nature, so the decoder side (Decoder.String)
// bounds the claimed length by the remaining input, VarLen-style.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Uint8s appends a length-prefixed byte slice.
func (e *Encoder) Uint8s(v []uint8) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Int8s appends a length-prefixed int8 slice.
func (e *Encoder) Int8s(v []int8) {
	e.U32(uint32(len(v)))
	b := e.Span(len(v))
	for i, x := range v {
		b[i] = uint8(x)
	}
}

// Uint16s appends a length-prefixed uint16 slice.
func (e *Encoder) Uint16s(v []uint16) {
	e.U32(uint32(len(v)))
	b := e.Span(2 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint16(b[2*i:], x)
	}
}

// Uint32s appends a length-prefixed uint32 slice.
func (e *Encoder) Uint32s(v []uint32) {
	e.U32(uint32(len(v)))
	b := e.Span(4 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
}

// Uint64s appends a length-prefixed uint64 slice.
func (e *Encoder) Uint64s(v []uint64) {
	e.U32(uint32(len(v)))
	b := e.Span(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
}

// Decoder reads a snapshot byte stream with a sticky error: the first
// failure (truncation, section mismatch, length mismatch) is recorded
// and every later read returns a zero value, so component restore code
// can decode straight-line and check Err (or the RestoreSnapshot
// return) once.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// Fail records err as the decoder's sticky error if none is set yet.
// Components use it to report semantic restore failures (structure
// mismatches) through the same channel as codec failures.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Span consumes and returns the next n bytes of the stream with one
// bounds check, so a table decodes in a tight loop over the span. It
// returns nil, recording the error, when fewer than n bytes remain;
// after any error it returns nil. The span aliases the decoder's
// input.
func (d *Decoder) Span(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 {
		d.Fail("snap: negative span length %d at offset %d", n, d.off)
		return nil
	}
	if d.Remaining() < n {
		d.Fail("snap: truncated stream at offset %d (need %d bytes, have %d)", d.off, n, d.Remaining())
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// Expect reads a section header and fails unless it names the given
// component at the given version.
func (d *Decoder) Expect(name string, version uint8) {
	n := int(d.U8())
	b := d.Span(n)
	if d.err != nil {
		return
	}
	if string(b) != name {
		d.Fail("snap: section %q where %q expected (snapshot from a different configuration?)", string(b), name)
		return
	}
	if v := d.U8(); d.err == nil && v != version {
		d.Fail("snap: section %q has version %d, this build reads %d", name, v, version)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.Span(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// I8 reads a signed byte.
func (d *Decoder) I8() int8 { return int8(d.U8()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.Span(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.Span(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.Span(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int encoded as 64 bits.
func (d *Decoder) Int() int { return int(d.I64()) }

// listLen reads a slice length prefix and validates it against the
// length the restoring instance expects. Geometry is configuration,
// not state: a mismatch means the snapshot came from a differently
// sized component.
func (d *Decoder) listLen(want int) bool {
	n := int(d.U32())
	if d.err != nil {
		return false
	}
	if n != want {
		d.Fail("snap: slice length %d where %d expected (snapshot from a different geometry?)", n, want)
		return false
	}
	return true
}

// VarLen reads a slice length prefix for genuinely variable-length
// state (e.g. pending-update queues), bounding it by the remaining
// bytes so corrupt input cannot force a huge allocation. perItem is
// the minimum encoded size of one element.
func (d *Decoder) VarLen(perItem int) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if perItem < 1 {
		perItem = 1
	}
	if n < 0 || n*perItem > d.Remaining() {
		d.Fail("snap: variable list length %d exceeds remaining %d bytes", n, d.Remaining())
		return 0
	}
	return n
}

// String reads a length-prefixed string. The length is bounded by the
// remaining input (the VarLen contract), so corrupt input cannot force
// an arbitrary allocation. Decoded strings are data, not structure:
// the stickyerr analyzer treats them like any other decoded value, so
// they must not drive further decoder reads.
func (d *Decoder) String() string {
	n := d.VarLen(1)
	b := d.Span(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Uint8s fills dst from a length-prefixed byte slice; the encoded
// length must equal len(dst).
func (d *Decoder) Uint8s(dst []uint8) {
	if !d.listLen(len(dst)) {
		return
	}
	b := d.Span(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

// Int8s fills dst from a length-prefixed int8 slice.
func (d *Decoder) Int8s(dst []int8) {
	if !d.listLen(len(dst)) {
		return
	}
	b := d.Span(len(dst))
	if b == nil {
		return
	}
	for i, x := range b {
		dst[i] = int8(x)
	}
}

// Uint16s fills dst from a length-prefixed uint16 slice.
func (d *Decoder) Uint16s(dst []uint16) {
	if !d.listLen(len(dst)) {
		return
	}
	b := d.Span(2 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint16(b[2*i:])
	}
}

// Uint32s fills dst from a length-prefixed uint32 slice.
func (d *Decoder) Uint32s(dst []uint32) {
	if !d.listLen(len(dst)) {
		return
	}
	b := d.Span(4 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
}

// Uint64s fills dst from a length-prefixed uint64 slice.
func (d *Decoder) Uint64s(dst []uint64) {
	if !d.listLen(len(dst)) {
		return
	}
	b := d.Span(8 * len(dst))
	if b == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}
