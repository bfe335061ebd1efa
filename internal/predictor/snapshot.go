package predictor

import (
	"repro/internal/snap"
)

// Snapshotter is the uniform full-state snapshot interface (DESIGN.md
// §8): a superset of the 26-bit SpecState — every table, counter,
// history register and PRNG of the predictor — serialized through the
// internal/snap codec. The simulation engine persists these at stream
// positions so longer-budget runs resume from cached prefixes and
// sharded runs can be made bit-exact. Every registry configuration
// implements it.
type Snapshotter = snap.Snapshotter

// structBits encodes which optional components a composite carries, so
// a restore into a structurally different configuration (possible when
// two custom builders share a cache name by mistake) fails loudly
// instead of mis-assigning sections.
func (c *Composite) structBits() uint16 {
	var m uint16
	set := func(bit int, on bool) {
		if on {
			m |= 1 << bit
		}
	}
	set(0, c.tage != nil)
	set(1, c.gehl != nil)
	set(2, c.imli != nil)
	set(3, c.sic != nil)
	set(4, c.oh != nil)
	set(5, c.loc != nil)
	set(6, c.lp != nil)
	set(7, c.wh != nil)
	return m
}

// Snapshot implements Snapshotter. Component order is fixed: shared
// histories first (global, path, folded bank), then the base predictor,
// then optional components in wiring order.
func (c *Composite) Snapshot(e *snap.Encoder) {
	e.Begin("composite", 1)
	e.U16(c.structBits())
	c.g.Snapshot(e)
	c.path.Snapshot(e)
	c.bank.Snapshot(e)
	if c.tage != nil {
		c.tage.Snapshot(e)
		c.gsc.Snapshot(e)
	} else {
		c.gehl.Snapshot(e)
	}
	if c.imli != nil {
		c.imli.Snapshot(e)
	}
	if c.sic != nil {
		c.sic.Snapshot(e)
	}
	if c.oh != nil {
		c.oh.Snapshot(e)
	}
	if c.loc != nil {
		c.loc.Snapshot(e)
	}
	if c.lp != nil {
		c.lp.Snapshot(e)
	}
	if c.wh != nil {
		c.wh.Snapshot(e)
	}
}

// RestoreSnapshot implements Snapshotter. The receiver must be a
// composite of the identical configuration, freshly built or used; on
// error its state is unspecified and it must be discarded.
func (c *Composite) RestoreSnapshot(d *snap.Decoder) error {
	d.Expect("composite", 1)
	if got := d.U16(); d.Err() == nil && got != c.structBits() {
		d.Fail("predictor: snapshot structure %#x does not match configuration %q (%#x)",
			got, c.opts.name, c.structBits())
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := c.g.RestoreSnapshot(d); err != nil {
		return err
	}
	if err := c.path.RestoreSnapshot(d); err != nil {
		return err
	}
	if err := c.bank.RestoreSnapshot(d); err != nil {
		return err
	}
	if c.tage != nil {
		if err := c.tage.RestoreSnapshot(d); err != nil {
			return err
		}
		if err := c.gsc.RestoreSnapshot(d); err != nil {
			return err
		}
	} else if err := c.gehl.RestoreSnapshot(d); err != nil {
		return err
	}
	if c.imli != nil {
		if err := c.imli.RestoreSnapshot(d); err != nil {
			return err
		}
	}
	if c.sic != nil {
		if err := c.sic.RestoreSnapshot(d); err != nil {
			return err
		}
	}
	if c.oh != nil {
		if err := c.oh.RestoreSnapshot(d); err != nil {
			return err
		}
	}
	if c.loc != nil {
		if err := c.loc.RestoreSnapshot(d); err != nil {
			return err
		}
	}
	if c.lp != nil {
		if err := c.lp.RestoreSnapshot(d); err != nil {
			return err
		}
	}
	if c.wh != nil {
		if err := c.wh.RestoreSnapshot(d); err != nil {
			return err
		}
	}
	return d.Err()
}

// Snapshot implements Snapshotter for the bimodal baseline adapter.
func (b *bimodalAdapter) Snapshot(e *snap.Encoder) { b.t.Snapshot(e) }

// RestoreSnapshot implements Snapshotter.
func (b *bimodalAdapter) RestoreSnapshot(d *snap.Decoder) error { return b.t.RestoreSnapshot(d) }

// Snapshot implements Snapshotter for the gshare baseline adapter.
func (g *gshareAdapter) Snapshot(e *snap.Encoder) { g.p.Snapshot(e) }

// RestoreSnapshot implements Snapshotter.
func (g *gshareAdapter) RestoreSnapshot(d *snap.Decoder) error { return g.p.RestoreSnapshot(d) }
