package sim

import (
	"context"
	"fmt"

	"repro/internal/predictor"
	"repro/internal/workload"
)

// ItemSpec is the serializable identity of one engine work item — the
// unit a coordinator dispatches to remote workers (internal/dist,
// DESIGN.md §14). It carries exactly the inputs runShard keys the
// result store with: a registry configuration name, the workload
// identity (suite, benchmark name, generator seed), the branch budget,
// and the shard geometry. Everything is a value, so any process that
// shares this repository's registries can reconstruct the identical
// simulation: the benchmark regenerates from (Bench, Seed), the
// predictor from Config, and the result is deterministic — which is
// what makes distributed execution bit-identical to local execution by
// construction.
type ItemSpec struct {
	// Config is the predictor configuration registry name. Only
	// registry configurations are remotable: a custom builder closure
	// cannot cross a process boundary, so the engine runs such items
	// locally.
	Config string `json:"config"`
	// Suite and Bench identify the workload; Seed is the benchmark's
	// (possibly remixed) generator seed, so seed-sweep variants
	// dispatch like any other item.
	Suite string `json:"suite"`
	Bench string `json:"bench"`
	Seed  uint64 `json:"seed"`
	// Budget is the branch-record budget of the whole benchmark run
	// this item belongs to.
	Budget int `json:"budget"`
	// Shard and Shards place the item in its benchmark's split. An
	// Exact item covers the whole chained partition (Shard is 0 and
	// RunItem returns Shards results), because shard i of an exact
	// chain needs the predictor state at shard i-1's boundary — only
	// the chain as a whole is location-independent.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Warmup is the functional warm-up length (plain sharding only).
	Warmup int `json:"warmup"`
	// Exact selects boundary-snapshot chaining (ExactShards).
	Exact bool `json:"exact,omitempty"`
}

// Validate checks that the item can be reconstructed from the local
// registries and that its geometry is coherent.
func (it ItemSpec) Validate() error {
	_, err := it.resolve()
	return err
}

// resolve validates the item and returns its benchmark definition, so
// RunItem looks the benchmark up once.
func (it ItemSpec) resolve() (workload.Benchmark, error) {
	if err := predictor.Check(it.Config); err != nil {
		return workload.Benchmark{}, fmt.Errorf("sim: item config: %w", err)
	}
	b, err := workload.ByName(it.Bench)
	if err != nil {
		return workload.Benchmark{}, fmt.Errorf("sim: item bench: %w", err)
	}
	if it.Budget <= 0 {
		return b, fmt.Errorf("sim: item budget must be positive, got %d", it.Budget)
	}
	if it.Shards < 1 {
		return b, fmt.Errorf("sim: item shards must be >= 1, got %d", it.Shards)
	}
	if it.Shard < 0 || (!it.Exact && it.Shard >= it.Shards) {
		return b, fmt.Errorf("sim: item shard %d out of range [0,%d)", it.Shard, it.Shards)
	}
	if it.Warmup < 0 {
		return b, fmt.Errorf("sim: item warmup must be >= 0, got %d", it.Warmup)
	}
	return b, nil
}

// RemoteRunner executes one work item somewhere else — the seam the
// coordinator (internal/dist) plugs into the engine. RunItem returns
// one Result for a plain item and Shards results (in shard order) for
// an Exact item. The call must be synchronous and idempotent: the
// engine treats the returned results exactly like locally simulated
// ones (same store keys, same merge), so re-running an item — a
// re-dispatched lease, a straggler duplicate — must produce the same
// bytes, which deterministic simulation guarantees.
//
// Error contract: a ctx-canceled RunItem returns ctx.Err() and the
// engine discards the run (the suite call's partial results are thrown
// away, as for any canceled run); any other error is treated like a
// work-item failure and panics through the engine, failing the one
// suite run the same way an injected "sim/engine.item" fault does.
type RemoteRunner interface {
	RunItem(ctx context.Context, item ItemSpec) ([]Result, error)
}

// remoteEligible reports whether a work item for (config, bench) can
// be dispatched to the engine's RemoteRunner: both must be
// reconstructible by name from the registries on the other side.
// Engine callers' contract that a config name uniquely identifies what
// its builder builds (RunSuite) is what makes the by-name rebuild
// equivalent.
func (e *Engine) remoteEligible(config, bench string) bool {
	if _, err := workload.ByName(bench); err != nil {
		return false
	}
	return predictor.Check(config) == nil
}

// RunItem executes one work item on this engine with the item's own
// geometry (not the engine's): the worker side of the coordinator
// seam. The engine's store, stream cache, snapshot resume, and worker
// pool all apply, so a worker daemon with a warm cache serves items
// incrementally like any local run. Panics inside the simulation
// (including injected "sim/engine.item" faults) are converted to
// errors: a worker must survive a poisoned item and report it, not
// die. A canceled ctx returns ctx.Err() — never a partial exact
// chain.
func (e *Engine) RunItem(ctx context.Context, item ItemSpec) (results []Result, err error) {
	b, err := item.resolve()
	if err != nil {
		return nil, err
	}
	b.Seed = item.Seed
	suite := item.Suite
	if suite == "" {
		suite = b.Suite
	}
	builder := func() predictor.Predictor { return predictor.MustNew(item.Config) }
	defer func() {
		if r := recover(); r != nil {
			results, err = nil, fmt.Errorf("sim: item %s/%s shard %d/%d: %v",
				item.Config, item.Bench, item.Shard, item.Shards, r)
		}
	}()
	// One engine worker slot per item, like every local work item, so a
	// worker daemon's -parallel bound holds across leased items too.
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-e.sem }()
	if item.Exact && item.Shards > 1 {
		res, _ := e.runBenchExactGeom(ctx, builder, item.Config, suite, b, item.Budget, item.Shards,
			func(string, int, bool) {})
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return res, nil
	}
	res, _ := e.runShardGeom(builder, item.Config, suite, b, item.Budget, item.Shard, item.Shards, item.Warmup)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return []Result{res}, nil
}

// runItemRemote dispatches one plain work item to the engine's
// RemoteRunner and stores the returned result under the same key a
// local run would use — the content-addressed store stays the merge
// point, and a duplicate completion of the same item overwrites the
// entry with identical bytes. See RemoteRunner for the error
// contract.
func (e *Engine) runItemRemote(ctx context.Context, key Key, item ItemSpec) Result {
	res, err := e.remote.RunItem(ctx, item)
	if err != nil {
		if ctx.Err() != nil {
			// Canceled run: the caller is about to discard everything.
			return Result{}
		}
		panic(fmt.Errorf("sim: remote item %s/%s shard %d: %w", item.Config, item.Bench, item.Shard, err))
	}
	if len(res) != 1 {
		panic(fmt.Errorf("sim: remote item %s/%s shard %d: got %d results, want 1",
			item.Config, item.Bench, item.Shard, len(res)))
	}
	if e.store != nil {
		_ = e.store.Save(key, res[0])
	}
	return res[0]
}
