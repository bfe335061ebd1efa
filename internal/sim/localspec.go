package sim

import (
	"fmt"

	"repro/internal/hist"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// LocalMode selects how the pipeline model manages speculative local
// history (§2.3.2, Figure 3 of the paper).
type LocalMode uint8

const (
	// LocalIdeal updates the local history table immediately (the
	// trace-driven idealisation every academic study uses).
	LocalIdeal LocalMode = iota
	// LocalCommitOnly updates the local history table only at commit
	// (delay branches late) and reads the stale committed table at
	// prediction time — a hardware design that refuses to build the
	// in-flight window.
	LocalCommitOnly
	// LocalForwarded updates at commit but forwards the speculative
	// history of in-flight occurrences through an associative window
	// search on every fetched branch — Figure 3. Must be exactly
	// equivalent to LocalIdeal; the cost is the search itself.
	LocalForwarded
)

// String names the mode.
func (m LocalMode) String() string {
	switch m {
	case LocalIdeal:
		return "ideal"
	case LocalCommitOnly:
		return "commit-only"
	case LocalForwarded:
		return "forwarded"
	default:
		return "local?"
	}
}

// LocalSpecPredictor is a composite whose local history commits delay
// conditional branches after they resolve. It holds the commit queue
// and, in forwarded mode, the in-flight window. It is not a
// snap.Snapshotter, because a composite snapshot covers neither, so the
// engine builds one per work item and never pools or resumes it.
type LocalSpecPredictor struct {
	c         *predictor.Composite
	committed *hist.Local
	// window is nil in commit-only mode.
	window *hist.InflightWindow
	delay  int
	name   string
	// queue holds the resolved branches not yet committed, oldest first.
	queue []trace.Record
	// spec is the local history of the branch being predicted: the
	// fetch engine searches the window once per fetched branch and
	// feeds every local table from that one search.
	spec uint64
}

// NewLocalSpecPredictor builds the registry configuration config,
// which must be a composite with local history, with delay conditional
// branches in flight under mode. LocalIdeal returns the plain
// composite; the other modes return a *LocalSpecPredictor named
// config/mode/delay, for example "tage-sc-l/forwarded/32".
func NewLocalSpecPredictor(config string, mode LocalMode, delay int) (predictor.Predictor, error) {
	if mode > LocalForwarded || delay < 0 {
		return nil, fmt.Errorf("sim: unknown local-history mode %d or negative delay %d", mode, delay)
	}
	c, err := composite(config)
	if err != nil {
		return nil, err
	}
	if c.LocalGroup() == nil {
		return nil, fmt.Errorf("sim: configuration %q has no local history component", config)
	}
	if mode == LocalIdeal {
		return c, nil
	}
	loc := c.DetachLocalHistory()
	p := &LocalSpecPredictor{c: c, committed: loc.History(), delay: delay,
		name: fmt.Sprintf("%s/%s/%d", config, mode, delay)}
	if mode == LocalForwarded {
		p.window = hist.NewInflightWindow(delay+1, p.committed.Bits())
		loc.SetSource(func(uint64) uint64 { return p.spec })
	}
	return p, nil
}

// Window returns the forwarded mode's in-flight window; nil otherwise.
func (p *LocalSpecPredictor) Window() *hist.InflightWindow { return p.window }

func (p *LocalSpecPredictor) Name() string     { return p.name }
func (p *LocalSpecPredictor) StorageBits() int { return p.c.StorageBits() }

// Predict forwards the most recent in-flight occurrence's local
// history, or the committed one, to the local tables.
func (p *LocalSpecPredictor) Predict(pc uint64) bool {
	if p.window != nil {
		p.spec = p.window.Lookup(p.committed.Index(pc), p.committed.Get(pc))
	}
	return p.c.Predict(pc)
}

func (p *LocalSpecPredictor) TrackOther(pc, target uint64, kind trace.Kind, taken bool) {
	p.c.TrackOther(pc, target, kind, taken)
}

// Train resolves the branch Predict saw. The resolved outcome becomes
// visible to later occurrences through the window (forwarded) and
// reaches the committed table delay branches later.
func (p *LocalSpecPredictor) Train(pc, target uint64, taken bool) {
	p.c.Train(pc, target, taken)
	if p.window != nil {
		h := p.spec << 1
		if taken {
			h |= 1
		}
		p.window.Insert(hist.InflightEntry{Index: p.committed.Index(pc), Hist: h & (1<<p.committed.Bits() - 1)})
	}
	p.queue = append(p.queue, trace.Record{PC: pc, Taken: taken})
	if len(p.queue) > p.delay {
		oldest := p.queue[0]
		p.queue = p.queue[1:]
		p.committed.Push(oldest.PC, oldest.Taken)
		if p.window != nil {
			p.window.Retire(1)
		}
	}
}

// WindowComparisons is the number of entries the forwarded mode's
// window searches compare over n conditional branches with delay in
// flight: one search per branch, the k-th (from 0) scanning the
// min(k, delay) branches fetched before it and not yet committed.
func WindowComparisons(n uint64, delay int) uint64 {
	d := uint64(delay)
	if n > d {
		return d*n - d*(d+1)/2
	}
	return n * (n - 1) / 2
}
