// Package stickyfix is the stickyerr analyzer fixture: decode
// functions over the real internal/snap decoder exercising
// payload-driven branching, raw-length allocation, and the sanctioned
// idioms (straight-line reads, VarLen bounds, bail-out validation,
// configuration-driven structure).
package stickyfix

import "repro/internal/snap"

type T struct {
	geom []uint8
	mode bool
	aux  []uint64
	wide bool // construction-time configuration
}

func (t *T) RestoreSnapshot(d *snap.Decoder) error {
	d.Expect("t", 1)
	flag := d.Bool()
	if flag {
		t.mode = d.Bool() // want `configuration-driven`
	}
	n := d.U32()
	buf := make([]uint8, n) // want `make\(\) sized by a raw decoded value`
	_ = buf
	m := d.VarLen(8)
	aux := make([]uint64, 0, m) // VarLen-bounded: sanctioned
	for i := 0; i < m; i++ {
		aux = append(aux, d.U64())
	}
	t.aux = aux
	if t.wide { // configuration-driven branch: sanctioned
		d.Uint8s(t.geom)
	}
	if err := d.Err(); err != nil {
		return err
	}
	return nil
}

// decodeList loops on a raw decoded count instead of VarLen.
func decodeList(d *snap.Decoder) []uint32 {
	k := d.Int()
	out := []uint32{}
	for i := 0; i < k; i++ {
		out = append(out, d.U32()) // want `bounded by a raw decoded value`
	}
	return out
}

// checkMode is bail-out validation: branching on a decoded value is
// fine when the branch only fails and returns, never reads.
func checkMode(d *snap.Decoder) error {
	if v := d.U8(); v > 7 {
		d.Fail("stickyfix: mode %d out of range", v)
		return d.Err()
	}
	return d.Err()
}

// suppressed shows the escape hatch for a genuinely payload-driven
// format (with its reason on record).
func suppressed(d *snap.Decoder) uint64 {
	if d.Bool() {
		//lint:allow stickyerr legacy v0 snapshots carry an optional trailer
		return d.U64()
	}
	return 0
}

// decodeTagged branches decode structure on a decoded string tag —
// flagged exactly like a numeric tag (Decoder.String results are
// data, not structure).
func decodeTagged(d *snap.Decoder) uint64 {
	kind := d.String()
	if kind == "wide" {
		return d.U64() // want `configuration-driven`
	}
	return uint64(d.U32()) // straight-line fallthrough: sanctioned
}

// decodeRecord reads strings straight-line: sanctioned.
func decodeRecord(d *snap.Decoder) (string, string, error) {
	id := d.String()
	name := d.String()
	return id, name, d.Err()
}

// decodeSpan reads a table as one span sized by geometry and fills it
// in a loop over the receiver's own slice: sanctioned.
func (t *T) decodeSpan(d *snap.Decoder) error {
	b := d.Span(len(t.geom))
	if err := d.Err(); err != nil {
		return err
	}
	for i := range t.geom {
		t.geom[i] = b[i]
	}
	return nil
}

// spanDriven chooses what to read next from span bytes: flagged like
// any other decoded value.
func spanDriven(d *snap.Decoder) uint64 {
	b := d.Span(1)
	if b[0] != 0 {
		return d.U64() // want `configuration-driven`
	}
	return 0
}
