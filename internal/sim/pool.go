package sim

import (
	"fmt"
	"sync"

	"repro/internal/predictor"
	"repro/internal/snap"
)

// predictorPool keeps the finished predictors of one configuration name
// so a later work item reuses one instead of building its own
// (DESIGN.md §5). Restoring pristine — the snapshot of a predictor
// built under the name, taken before it saw a record — puts a used
// predictor back in its freshly built state; snapcomplete and
// TestSnapshotPristineResetEqualsFresh are what keep that reset equal to
// a build.
type predictorPool struct {
	name string
	// limit bounds the free list: the engine's worker count, so the pool
	// never holds more predictors than were once in flight together.
	limit int

	mu sync.Mutex
	// built is set by the name's first finished build. pristine stays
	// nil when that predictor is not a snap.Snapshotter, and then
	// nothing is pooled: every item builds its own, as a custom
	// builder's always did.
	built    bool
	pristine []byte
	free     []predictor.Predictor
}

// pool returns the predictor pool of a configuration name, creating it
// on first use. RunSuite's contract that a name identifies what its
// builder builds is what makes the name a sound key.
func (e *Engine) pool(name string) *predictorPool {
	e.poolsMu.Lock()
	defer e.poolsMu.Unlock()
	pp := e.pools[name]
	if pp == nil {
		pp = &predictorPool{name: name, limit: e.workers}
		e.pools[name] = pp
	}
	return pp
}

// fresh returns a predictor in its freshly built state: a pooled one
// reset to the pristine snapshot, or builder's when the free list is
// empty. A reset that fails means two builders share the name, and
// running on with the other builder's predictor would report its
// numbers under this name, so fresh panics naming the configuration.
func (pp *predictorPool) fresh(builder func() predictor.Predictor) predictor.Predictor {
	p, pristine := pp.take()
	if p == nil {
		return pp.build(builder)
	}
	if err := p.(snap.Snapshotter).RestoreSnapshot(snap.NewDecoder(pristine)); err != nil {
		panic(fmt.Errorf("sim: configuration %q: a pooled predictor rejects the pristine snapshot of its name (%v); two builders share the name", pp.name, err))
	}
	return p
}

// take pops a pooled predictor, in whatever state its last item left
// it, together with the pristine snapshot; it returns a nil predictor
// when the free list is empty.
func (pp *predictorPool) take() (predictor.Predictor, []byte) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	n := len(pp.free)
	if n == 0 {
		return nil, nil
	}
	p := pp.free[n-1]
	pp.free[n-1] = nil
	pp.free = pp.free[:n-1]
	return p, pp.pristine
}

// build calls builder. Until the pool is built, a build also encodes
// its predictor before it sees a record, and the first build to finish
// keeps its bytes as the pristine snapshot. built and pristine are set
// together, so every predictor a finished build hands out can be put
// back: none is dropped for lack of a pristine snapshot that a
// concurrent first build is still encoding.
func (pp *predictorPool) build(builder func() predictor.Predictor) predictor.Predictor {
	p := builder()
	pp.mu.Lock()
	built := pp.built
	pp.mu.Unlock()
	if built {
		return p
	}
	var pristine []byte
	if sp, ok := p.(snap.Snapshotter); ok {
		enc := snap.NewEncoder()
		sp.Snapshot(enc)
		pristine = enc.Bytes()
	}
	pp.mu.Lock()
	if !pp.built {
		pp.built, pp.pristine = true, pristine
	}
	pp.mu.Unlock()
	return p
}

// put hands back the predictor of an item that ended, normally or at a
// canceled boundary. A predictor whose item panicked, or whose restore
// failed, is never handed back: its state is unspecified.
func (pp *predictorPool) put(p predictor.Predictor) {
	if _, ok := p.(snap.Snapshotter); !ok {
		return
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pp.pristine != nil && len(pp.free) < pp.limit {
		pp.free = append(pp.free, p)
	}
}
