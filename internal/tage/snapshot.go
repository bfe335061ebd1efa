package tage

import "repro/internal/snap"

// Snapshot implements snap.Snapshotter (DESIGN.md §8): the bimodal
// base table, every tagged-table entry (counter, tag, usefulness), the
// use_alt_on_na chooser, the aging tick, and the allocation PRNG state
// (allocation randomisation consumes the PRNG, so bit-exact resume
// must resume it). The folded registers live in the shared FoldedBank
// and snapshot there; the per-branch index/tag scratch is dead at a
// branch boundary and is not state. Each tagged table is one span of
// 4-byte entries: ctr, tag (little-endian), u.
func (p *Predictor) Snapshot(e *snap.Encoder) {
	e.Begin("tage", 1)
	p.base.Snapshot(e)
	e.U32(uint32(len(p.tables)))
	for i := range p.tables {
		t := &p.tables[i]
		e.U32(uint32(len(t.entries)))
		b := e.Span(4 * len(t.entries))
		for j := range t.entries {
			en, s := &t.entries[j], b[4*j:4*j+4]
			s[0], s[1], s[2], s[3] = uint8(en.ctr), uint8(en.tag), uint8(en.tag>>8), en.u
		}
	}
	e.I8(p.useAltOnNA)
	e.Int(p.tick)
	e.U64(p.rng.State())
}

// RestoreSnapshot implements snap.Snapshotter.
func (p *Predictor) RestoreSnapshot(d *snap.Decoder) error {
	d.Expect("tage", 1)
	if err := p.base.RestoreSnapshot(d); err != nil {
		return err
	}
	if n := int(d.U32()); d.Err() == nil && n != len(p.tables) {
		d.Fail("tage: %d tagged tables where %d expected", n, len(p.tables))
	}
	for i := range p.tables {
		t := &p.tables[i]
		if n := int(d.U32()); d.Err() == nil && n != len(t.entries) {
			d.Fail("tage: table %d has %d entries where %d expected", i, n, len(t.entries))
		}
		b := d.Span(4 * len(t.entries))
		if err := d.Err(); err != nil {
			return err
		}
		for j := range t.entries {
			en, s := &t.entries[j], b[4*j:4*j+4]
			en.ctr, en.tag, en.u = int8(s[0]), uint16(s[1])|uint16(s[2])<<8, s[3]
		}
	}
	useAlt := d.I8()
	tick := d.Int()
	rng := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	p.useAltOnNA = useAlt
	p.tick = tick
	p.rng.SetState(rng)
	return nil
}
