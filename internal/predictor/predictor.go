// Package predictor composes the substrate packages into the complete
// predictors the paper evaluates: TAGE-GSC and GEHL bases, optionally
// augmented with IMLI components (SIC/OH), local history, a loop
// predictor, and the wormhole side predictor. A string registry maps
// configuration names (e.g. "tage-gsc+imli") to constructors so the
// simulator, benchmarks and CLI all share one set of definitions.
package predictor

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Predictor is the common interface of every composed predictor. The
// call protocol per conditional branch is Predict then Train; other
// branch kinds are fed through TrackOther to keep path and global
// history context consistent with real fetch streams.
type Predictor interface {
	// Name returns the registry name of the configuration.
	Name() string
	// Predict returns the predicted direction for a conditional branch.
	Predict(pc uint64) bool
	// Train resolves the conditional branch last predicted (same pc)
	// and updates all predictor state.
	Train(pc, target uint64, taken bool)
	// TrackOther observes a non-conditional branch (jump, call,
	// return, indirect) for history maintenance.
	TrackOther(pc, target uint64, kind trace.Kind, taken bool)
	// StorageBits returns the total hardware storage cost.
	StorageBits() int
}

// StorageItem is one line of a storage budget breakdown.
type StorageItem struct {
	Name string
	Bits int
}

// Builder constructs a predictor.
type Builder func() Predictor

var registry = map[string]Builder{}

// Register installs a named configuration. Panics on duplicates (the
// registry is assembled at init time from static definitions).
func Register(name string, b Builder) {
	if _, dup := registry[name]; dup {
		panic("predictor: duplicate registration of " + name)
	}
	registry[name] = b
}

// Check reports whether name is a registered configuration, returning
// exactly the error New would, without building the predictor: the
// sites that only validate a name (work items, job submissions, suite
// runs) call it instead of allocating full table state.
func Check(name string) error {
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("predictor: unknown configuration %q", name)
	}
	return nil
}

// New builds the named configuration.
func New(name string) (Predictor, error) {
	if err := Check(name); err != nil {
		return nil, err
	}
	return registry[name](), nil
}

// MustNew builds the named configuration and panics on error; for
// experiment definitions whose names are static.
func MustNew(name string) Predictor {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names returns all registered configuration names in sorted order,
// so listings and catalogs built from it are deterministic without
// every caller re-sorting.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
