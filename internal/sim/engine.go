package sim

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/predictor"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// EngineVersion participates in every store key. Bump it whenever the
// simulator, the workload generators, a predictor implementation, or
// the store-key encoding changes in a way that alters simulated
// counters or their addressing, so stale cache entries can never be
// returned. Version 2: unambiguous (JSON) store-key encoding.
// Version 3: versioned store layout (v<N>/ directories), predictor
// snapshots, and the Exact key field.
const EngineVersion = 3

// DefaultShardWarmup is the functional warm-up length (in branch
// records) a shard trains on before its measured segment when the
// engine config leaves Warmup at zero. 10K records keeps the merged
// MPKI within a few percent of the unsharded run (see DESIGN.md §5).
const DefaultShardWarmup = 10000

// EngineConfig sizes the simulation engine.
type EngineConfig struct {
	// Workers bounds concurrent shard simulations; <=0 means
	// GOMAXPROCS. The bound is engine-wide: concurrent suite runs
	// sharing one engine also share the pool.
	Workers int
	// Shards splits each benchmark's branch budget into this many
	// contiguous segments of the deterministic stream, simulated as
	// independent work items; <=1 runs each benchmark unsharded. See
	// DESIGN.md §5 for the accuracy tolerance warm-up sharding
	// introduces, and ExactShards for the bit-exact mode.
	Shards int
	// Warmup is the functional warm-up length per shard: how many
	// records before its segment a shard's fresh predictor trains on
	// unmeasured. 0 means DefaultShardWarmup; <0 disables warm-up.
	// Ignored by ExactShards runs.
	Warmup int
	// Snapshots enables the predictor-state snapshot layer (DESIGN.md
	// §8): unsharded runs persist their end-of-run predictor state in
	// the Store and later, longer-budget runs of the same (config,
	// trace, seed) resume from the longest cached prefix instead of
	// record 0 — a budget sweep costs max(budget) simulation work
	// instead of sum(budgets). Requires a Store (or CacheDir) to
	// persist anything; predictors that do not implement
	// predictor.Snapshotter silently run cold.
	Snapshots bool
	// ExactShards switches sharding from functional warm-up to
	// boundary-snapshot chaining: a benchmark's shards execute as a
	// chained partition of the contiguous stream, each starting from
	// the exact predictor state at its boundary, so merged sharded
	// counters are bit-identical to the unsharded run (no §5
	// tolerance). A benchmark's shards serialize on one worker
	// (parallelism comes from benchmarks and configurations), but each
	// shard's result and each boundary state are cached individually,
	// so re-runs and budget extensions stay incremental. Implies
	// Snapshots.
	ExactShards bool
	// Interleave, when > 1, makes each worker advance up to this many
	// work items in lockstep through the staged predict/train pipeline
	// (DESIGN.md §13): stage-1 index math for all co-resident streams,
	// then all their table loads, then all their combines, so cache
	// misses from different streams overlap instead of serializing.
	// Bit-identical per stream — results and store entries are
	// unchanged. Applies to the plain sharding path; ExactShards runs
	// chain shards serially and ignore it. Streams fall back to the
	// serial driver when the predictor is not a composite or the stream
	// is not materialized.
	Interleave int
	// Store, when non-nil, caches per-shard results (and snapshots) on
	// disk so repeated runs are incremental.
	Store *Store
	// CacheDir opens a Store rooted at the directory when Store is
	// nil and the string is non-empty — the common case for callers
	// plumbing a -cache-dir flag.
	CacheDir string
	// Streams, when non-nil, is the materialized-stream cache shards
	// read from; sharing one cache across engines shares the streams.
	Streams *workload.StreamCache
	// StreamMemory sizes the private stream cache built when Streams
	// is nil: 0 means workload.DefaultStreamMemory, <0 disables
	// materialization entirely so every shard regenerates its stream
	// prefix (the pre-stream-layer behaviour; see DESIGN.md §6).
	StreamMemory int64
	// Remote, when non-nil, makes this engine a coordinator (DESIGN.md
	// §14): work items whose configuration and benchmark are registry
	// names — and therefore reconstructible by name on another machine
	// — are dispatched through the RemoteRunner instead of simulated
	// locally, and the returned results are stored and merged exactly
	// as local ones would be. Items a remote cannot rebuild (custom
	// predictor builders) still run locally. A RunItem call blocks its
	// engine worker slot while the remote executes, so Workers should
	// be sized to the wanted dispatch concurrency, not to local CPUs;
	// <=0 defaults to 8×GOMAXPROCS when Remote is set. Interleave is
	// forced to 1: lockstep grouping is an in-process hot-path
	// arrangement, meaningless across a wire.
	Remote RemoteRunner
}

// EngineStats counts what an engine did across its lifetime.
type EngineStats struct {
	// Simulated is the number of shard work items actually simulated.
	Simulated uint64
	// CacheHits is the number of shard work items served by the store.
	CacheHits uint64
	// RecordsSimulated is the total number of branch records fed to
	// predictors (replay, warm-up and measured) — the engine's total
	// simulation work, the quantity snapshot resume exists to cut.
	RecordsSimulated uint64
	// Resumed is the number of work items that started from a cached
	// predictor-state snapshot instead of record 0.
	Resumed uint64
}

// Engine executes (configuration × benchmark × shard) work items over
// a bounded worker pool, merging per-shard results into per-benchmark
// Results. A fresh predictor instance is built per work item (the CBP
// methodology: traces — and here shards — are independent runs),
// except when a cached snapshot supplies the exact state of a stream
// prefix (Snapshots / ExactShards).
type Engine struct {
	workers    int
	shards     int
	warmup     int
	snapshots  bool
	exact      bool
	interleave int
	store      *Store
	streams    *workload.StreamCache
	// sem is the engine-wide worker bound: every work item, from every
	// concurrent RunSuite call sharing this engine, holds one slot
	// while it simulates. Long-running services (internal/serve) rely
	// on this to run many jobs over one engine without oversubscribing
	// the machine.
	sem chan struct{}
	// remote, when non-nil, dispatches registry-rebuildable work items
	// to another process (DESIGN.md §14).
	remote    RemoteRunner
	simulated atomic.Uint64
	hits      atomic.Uint64
	records   atomic.Uint64
	resumed   atomic.Uint64
}

// NewEngine returns an engine for the given configuration.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Remote != nil {
			// A coordinator's workers mostly block on remote completion,
			// not on CPU: default to enough slots to keep a fleet busy.
			cfg.Workers = 8 * runtime.GOMAXPROCS(0)
		}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	switch {
	case cfg.Warmup == 0:
		cfg.Warmup = DefaultShardWarmup
	case cfg.Warmup < 0:
		cfg.Warmup = 0
	}
	if cfg.Store == nil && cfg.CacheDir != "" {
		cfg.Store = OpenStore(cfg.CacheDir)
	}
	if cfg.Streams == nil && cfg.StreamMemory >= 0 {
		// Private stream cache; when the engine has an on-disk result
		// store, spill materialized streams next to it so later
		// processes reload instead of regenerating. The spill lives
		// under a per-EngineVersion directory: the same bump that
		// invalidates stale results also orphans stale streams, so a
		// generator change can never resurrect pre-change records.
		spill := ""
		if cfg.Store != nil && cfg.Store.Dir() != "" {
			spill = filepath.Join(cfg.Store.Dir(), "streams", fmt.Sprintf("v%d", EngineVersion))
		}
		cfg.Streams = workload.NewStreamCache(cfg.StreamMemory, spill)
	}
	if cfg.Interleave < 1 || cfg.Remote != nil {
		cfg.Interleave = 1
	}
	return &Engine{
		workers: cfg.Workers, shards: cfg.Shards, warmup: cfg.Warmup,
		snapshots: cfg.Snapshots || cfg.ExactShards, exact: cfg.ExactShards,
		interleave: cfg.Interleave,
		store:      cfg.Store, streams: cfg.Streams,
		remote: cfg.Remote,
		sem:    make(chan struct{}, cfg.Workers),
	}
}

// StreamMemoryFromMiB maps a MiB-denominated -stream-mem flag value
// onto EngineConfig.StreamMemory, preserving its 0 = default /
// negative = disable convention. Shared by the CLIs so the convention
// lives in one place.
func StreamMemoryFromMiB(mib int) int64 {
	if mib < 0 {
		return -1
	}
	return int64(mib) << 20
}

// Shards returns the per-benchmark shard count.
func (e *Engine) Shards() int { return e.shards }

// Interleave returns the per-worker co-resident stream count (1 =
// serial).
func (e *Engine) Interleave() int { return e.interleave }

// Streams returns the engine's materialized-stream cache, or nil when
// materialization is disabled.
func (e *Engine) Streams() *workload.StreamCache { return e.streams }

// Stats returns cumulative work counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Simulated: e.simulated.Load(), CacheHits: e.hits.Load(),
		RecordsSimulated: e.records.Load(), Resumed: e.resumed.Load(),
	}
}

// ItemEvent reports one completed engine work item (one shard of one
// benchmark) to a RunSuiteContext progress callback.
type ItemEvent struct {
	// Config, Suite and Trace identify the work item's simulation.
	Config, Suite, Trace string
	// Shard is the work item's shard index within its benchmark.
	Shard int
	// Done counts work items completed so far in this RunSuiteContext
	// call; Total is the number the call will execute. Done == Total
	// on the final event.
	Done, Total int
	// Cached reports that the item was served from the result store
	// instead of simulated.
	Cached bool
}

// forEach runs fn(i) for i in [0,n) over the engine's worker pool.
// The concurrency bound is engine-wide: each running fn holds one of
// the engine's worker slots, so concurrent forEach calls (concurrent
// suite runs, concurrent service jobs) never exceed cfg.Workers
// in-flight items between them. When ctx is canceled, remaining items
// are skipped (in-flight ones complete — work items are the engine's
// atomic unit, so the result store never sees a torn entry). A panic
// on a work item stops the run and is re-raised on the calling
// goroutine, so callers' recover semantics (the imlid service fails
// the one job; the CLIs crash loudly) hold no matter which worker hit
// it.
func (e *Engine) forEach(ctx context.Context, n int, fn func(i int)) {
	launchers := e.workers
	if launchers > n {
		launchers = n
	}
	feed := make(chan int)
	stop := make(chan struct{})
	var panicMu sync.Mutex
	var panicVal any
	panicked := false
	runOne := func(i int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if !panicked {
					panicked, panicVal = true, r
					close(stop)
				}
				panicMu.Unlock()
			}
		}()
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		fn(i)
		return true
	}
	var wg sync.WaitGroup
	for w := 0; w < launchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				if !runOne(i) {
					return
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case feed <- i:
		case <-ctx.Done():
			break dispatch
		case <-stop:
			break dispatch
		}
	}
	close(feed)
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
}

// RunSuite simulates one configuration over every benchmark of a
// suite. builder must build a fresh predictor per call; name labels
// the configuration and keys the store (so it must uniquely identify
// what builder builds). Results come back in benchmark order and are
// deterministic regardless of worker count.
func (e *Engine) RunSuite(builder func() predictor.Predictor, name, suite string, benches []workload.Benchmark, budget int) SuiteRun {
	run, _ := e.RunSuiteContext(context.Background(), builder, name, suite, benches, budget, nil)
	return run
}

// RunSuiteContext is RunSuite with cancellation and per-item progress.
// When ctx is canceled the run stops scheduling work items and returns
// the context's error; the partial SuiteRun must be discarded (skipped
// benchmarks read as zero results), but every item that did complete
// was stored normally, so a re-run is incremental. onItem, when
// non-nil, is invoked after each completed work item; calls are
// serialized and Done is strictly increasing, so callers may forward
// events without locking.
func (e *Engine) RunSuiteContext(ctx context.Context, builder func() predictor.Predictor, name, suite string, benches []workload.Benchmark, budget int, onItem func(ItemEvent)) (SuiteRun, error) {
	run := SuiteRun{Config: name, Suite: suite, Results: make([]Result, len(benches))}
	shardRes := make([][]Result, len(benches))
	var cached atomic.Uint64
	total := len(benches) * e.shards
	var progressMu sync.Mutex
	done := 0
	emit := func(trace string, shard int, hit bool) {
		if onItem == nil {
			return
		}
		progressMu.Lock()
		done++
		ev := ItemEvent{Config: name, Suite: suite, Trace: trace, Shard: shard,
			Done: done, Total: total, Cached: hit}
		onItem(ev)
		progressMu.Unlock()
	}

	if e.exact && e.shards > 1 {
		// Exact mode: a benchmark's shards chain through boundary
		// snapshots and so execute sequentially on one worker; the
		// pool parallelizes across benchmarks.
		e.forEach(ctx, len(benches), func(bi int) {
			res, hit := e.runBenchExact(ctx, builder, name, suite, benches[bi], budget, emit)
			shardRes[bi] = res
			cached.Add(uint64(hit))
		})
	} else {
		type item struct{ bench, shard int }
		items := make([]item, 0, total)
		for bi := range benches {
			shardRes[bi] = make([]Result, e.shards)
			for si := 0; si < e.shards; si++ {
				items = append(items, item{bi, si})
			}
		}
		if e.interleave > 1 {
			// Interleaved mode: each worker advances a group of up to
			// `interleave` work items in lockstep so their table-load
			// misses overlap (see interleave.go). Per-item results,
			// store entries and snapshots are bit-identical to the
			// serial path.
			step := e.interleave
			groups := (len(items) + step - 1) / step
			e.forEach(ctx, groups, func(gi int) {
				lo := gi * step
				hi := lo + step
				if hi > len(items) {
					hi = len(items)
				}
				work := make([]groupItem, hi-lo)
				for k, it := range items[lo:hi] {
					work[k] = groupItem{bench: benches[it.bench], shard: it.shard}
				}
				e.runShardGroup(builder, name, suite, budget, work)
				for k, it := range items[lo:hi] {
					if work[k].hit {
						cached.Add(1)
					}
					shardRes[it.bench][it.shard] = work[k].res
					emit(benches[it.bench].Name, it.shard, work[k].hit)
				}
			})
		} else {
			e.forEach(ctx, len(items), func(i int) {
				it := items[i]
				res, hit := e.runShard(ctx, builder, name, suite, benches[it.bench], budget, it.shard)
				if hit {
					cached.Add(1)
				}
				shardRes[it.bench][it.shard] = res
				emit(benches[it.bench].Name, it.shard, hit)
			})
		}
	}

	for i := range benches {
		run.Results[i] = MergeShards(shardRes[i])
	}
	run.RanShards = total - int(cached.Load())
	run.CachedShards = int(cached.Load())
	return run, ctx.Err()
}

// feedWindow advances p over a window of b's deterministic stream:
// records before skip are not fed (they are either outside the
// warm-up window or already incorporated in a restored snapshot),
// records in [skip, start) train the predictor unmeasured, and records
// in [start, end) are measured. It prefers the materialized stream
// (DESIGN.md §6) and falls back to callback generation. Returns the
// measured result, the stream position the predictor ended at, and the
// number of records actually fed.
func (e *Engine) feedWindow(p predictor.Predictor, b workload.Benchmark, budget, skip, start, end int) (res Result, finalPos, fed int) {
	var stream *workload.Stream
	if e.streams != nil {
		stream = e.streams.Get(b, budget)
	}
	if stream != nil {
		// The materialized stream is the full Generate(budget) output
		// including the episode-granular overshoot, so an unsharded
		// run's unbounded window clamps to the identical record set a
		// plain Feed would see.
		recs := stream.Records()
		res = feedRecords(p, b.Name, recs, skip, start, end)
		finalPos = len(recs)
	} else {
		genEnd := end
		if end == noLimit {
			genEnd = budget
		}
		seen := 0
		res = feedSpan(p, b.Name, skip, start, end, func(emit func(trace.Record)) {
			b.Generate(genEnd, func(r trace.Record) {
				seen++
				emit(r)
			})
		})
		finalPos = seen
	}
	if end < finalPos {
		finalPos = end
	}
	if fed = finalPos - skip; fed < 0 {
		fed = 0
	}
	return res, finalPos, fed
}

// runShard serves one work item with the engine's own geometry,
// dispatching it to the RemoteRunner when one is configured and the
// item is rebuildable by name on the other side (DESIGN.md §14);
// everything else takes the local path. ctx only governs remote
// dispatch — local shard simulation is the engine's atomic unit and
// runs to completion once started.
func (e *Engine) runShard(ctx context.Context, builder func() predictor.Predictor, config, suite string, b workload.Benchmark, budget, shard int) (Result, bool) {
	if e.remote != nil && e.remoteEligible(config, b.Name) {
		key := Key{
			Engine: EngineVersion, Config: config, Suite: suite, Trace: b.Name,
			Budget: budget, Seed: b.Seed, Shard: shard, Shards: e.shards, Warmup: e.warmup,
		}
		if e.store != nil {
			if res, ok := e.store.Load(key); ok {
				e.hits.Add(1)
				return res, true
			}
		}
		item := ItemSpec{
			Config: config, Suite: suite, Bench: b.Name, Seed: b.Seed,
			Budget: budget, Shard: shard, Shards: e.shards, Warmup: e.warmup,
		}
		return e.runItemRemote(ctx, key, item), false
	}
	return e.runShardGeom(builder, config, suite, b, budget, shard, e.shards, e.warmup)
}

// runShardGeom serves one work item locally with explicit shard
// geometry (shards, warmup) — the engine's geometry for local suite
// runs, the item's geometry when a worker daemon executes a leased
// ItemSpec (Engine.RunItem), so the store key and the simulated window
// are those of the dispatching coordinator, not of the worker's own
// configuration. A shard reads its window of the benchmark's
// materialized stream (generated once per (trace, seed, budget) and
// shared across shards and configurations; see DESIGN.md §6), discards
// records before its warm-up window, trains unmeasured through the
// window, and measures its segment. Unsharded runs with the snapshot
// layer enabled first look for a cached prefix snapshot to resume
// from, and persist their end-of-run state for future longer-budget
// runs (DESIGN.md §8).
func (e *Engine) runShardGeom(builder func() predictor.Predictor, config, suite string, b workload.Benchmark, budget, shard, shards, warmup int) (Result, bool) {
	key := Key{
		Engine: EngineVersion, Config: config, Suite: suite, Trace: b.Name,
		Budget: budget, Seed: b.Seed, Shard: shard, Shards: shards, Warmup: warmup,
	}
	if e.store != nil {
		if res, ok := e.store.Load(key); ok {
			e.hits.Add(1)
			return res, true
		}
	}
	if err := faultinject.Err("sim/engine.item"); err != nil {
		// Injected work-item failure: panic so forEach re-raises on the
		// caller, the same path a real simulation bug would take.
		panic(err)
	}
	start := workload.ShardStart(budget, shard, shards)
	end := start + workload.ShardBudget(budget, shard, shards)
	skip := start - warmup
	if skip < 0 {
		skip = 0
	}
	measureEnd := end
	if shards == 1 {
		// Unsharded runs keep the generator's episode-granular
		// overshoot, bit-identical to a plain Feed.
		measureEnd = noLimit
	}
	var p predictor.Predictor
	var partial Result
	canSnapshot := e.snapshots && shards == 1 && e.store != nil
	if canSnapshot {
		if rp, part, pos := e.tryResume(builder, config, suite, b, budget); rp != nil {
			// The snapshot carries both the exact predictor state at
			// pos and the counters measured over [0, pos); measurement
			// continues at pos.
			p, partial, skip, start = rp, part, pos, pos
		}
	}
	if p == nil {
		p = builder()
	}
	res, finalPos, fed := e.feedWindow(p, b, budget, skip, start, measureEnd)
	res.Instructions += partial.Instructions
	res.Records += partial.Records
	res.Conditionals += partial.Conditionals
	res.Mispredicted += partial.Mispredicted
	e.simulated.Add(1)
	e.records.Add(uint64(fed))
	if e.store != nil {
		// Best-effort: a full disk or read-only cache directory must
		// not fail the simulation; the run simply stays uncached.
		_ = e.store.Save(key, res)
	}
	if canSnapshot && finalPos > 0 {
		e.saveSnapshot(p, config, suite, b, finalPos, res)
	}
	return res, false
}

// exactKey is the store key of shard i of an exact n-way chain.
func exactKey(config, suite string, b workload.Benchmark, budget, i, n int) Key {
	return Key{
		Engine: EngineVersion, Config: config, Suite: suite, Trace: b.Name,
		Budget: budget, Seed: b.Seed, Shard: i, Shards: n, Exact: true,
	}
}

// runBenchExact runs one benchmark's exact shard chain with the
// engine's geometry, remotely when a RemoteRunner is configured and
// the item is rebuildable by name. An exact chain dispatches as one
// work item covering all shards: shard i needs the predictor state at
// shard i-1's boundary, so only the whole chain is
// location-independent (ItemSpec.Exact).
func (e *Engine) runBenchExact(ctx context.Context, builder func() predictor.Predictor, config, suite string, b workload.Benchmark, budget int, emit func(trace string, shard int, hit bool)) ([]Result, int) {
	if e.remote != nil && e.remoteEligible(config, b.Name) {
		return e.runBenchExactRemote(ctx, config, suite, b, budget, emit)
	}
	return e.runBenchExactGeom(ctx, builder, config, suite, b, budget, e.shards, emit)
}

// runBenchExactRemote serves an exact chain through the RemoteRunner.
// Shards already in the store stay cache hits; a chain with any miss
// dispatches whole (the remote re-derives every boundary state anyway)
// and only the missing shards' results are taken from the response and
// stored. See RemoteRunner for the error contract.
func (e *Engine) runBenchExactRemote(ctx context.Context, config, suite string, b workload.Benchmark, budget int, emit func(trace string, shard int, hit bool)) ([]Result, int) {
	n := e.shards
	results := make([]Result, n)
	hit := make([]bool, n)
	cached := 0
	if e.store != nil {
		for i := 0; i < n; i++ {
			if res, ok := e.store.Load(exactKey(config, suite, b, budget, i, n)); ok {
				e.hits.Add(1)
				results[i], hit[i] = res, true
				cached++
			}
		}
	}
	if cached < n {
		item := ItemSpec{
			Config: config, Suite: suite, Bench: b.Name, Seed: b.Seed,
			Budget: budget, Shards: n, Exact: true,
		}
		res, err := e.remote.RunItem(ctx, item)
		if err != nil {
			if ctx.Err() != nil {
				return results, cached
			}
			panic(fmt.Errorf("sim: remote exact chain %s/%s: %w", config, b.Name, err))
		}
		if len(res) != n {
			panic(fmt.Errorf("sim: remote exact chain %s/%s: got %d results, want %d", config, b.Name, len(res), n))
		}
		for i := 0; i < n; i++ {
			if hit[i] {
				continue
			}
			results[i] = res[i]
			if e.store != nil {
				_ = e.store.Save(exactKey(config, suite, b, budget, i, n), res[i])
			}
		}
	}
	for i := 0; i < n; i++ {
		emit(b.Name, i, hit[i])
	}
	return results, cached
}

// runBenchExactGeom simulates every shard of one benchmark as a
// chained partition of the contiguous stream, with an explicit shard
// count (the engine's for local runs, the item's when a worker
// executes a leased exact chain): shard i starts from the exact
// predictor state at its segment boundary — restored from a cached
// snapshot, or rebuilt by replaying the stream from the nearest
// earlier one — so the merged results are bit-identical to the
// unsharded run. Each shard's result and each boundary state are
// persisted individually. A canceled ctx stops the chain at the next
// shard boundary (completed shards are already stored). Returns
// per-shard results and how many were served from the store.
func (e *Engine) runBenchExactGeom(ctx context.Context, builder func() predictor.Predictor, config, suite string, b workload.Benchmark, budget, shards int, emit func(trace string, shard int, hit bool)) ([]Result, int) {
	n := shards
	results := make([]Result, n)
	cached := 0
	var p predictor.Predictor
	pos := 0
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return results, cached
		}
		key := exactKey(config, suite, b, budget, i, n)
		if e.store != nil {
			if res, ok := e.store.Load(key); ok {
				e.hits.Add(1)
				results[i] = res
				cached++
				emit(b.Name, i, true)
				// The live chain state is now behind this shard's end;
				// a later uncached shard restores or replays instead.
				p = nil
				continue
			}
		}
		if err := faultinject.Err("sim/engine.item"); err != nil {
			// Injected work-item failure; see runShard.
			panic(err)
		}
		start := workload.ShardStart(budget, i, n)
		end := start + workload.ShardBudget(budget, i, n)
		if i == n-1 {
			// The final shard absorbs the generator's episode-granular
			// overshoot, exactly like an unsharded run's tail.
			end = noLimit
		}
		if p == nil || pos > start {
			p, pos = e.restoreAtOrBefore(builder, config, suite, b, start)
		}
		// feedWindow replays [pos, start) as training — the exact
		// records of the contiguous run, not an approximation — then
		// measures [start, end).
		res, finalPos, fed := e.feedWindow(p, b, budget, pos, start, end)
		results[i] = res
		pos = finalPos
		e.simulated.Add(1)
		e.records.Add(uint64(fed))
		if e.store != nil {
			_ = e.store.Save(key, res)
			if finalPos > 0 {
				// Persist the boundary state: it seeds shard i+1 on a
				// later run, and — because the exact chain measures
				// every record from 0 — the merged counters double as
				// the budget-sweep resume payload.
				e.saveSnapshot(p, config, suite, b, finalPos, MergeShards(results[:i+1]))
			}
		}
		emit(b.Name, i, false)
	}
	return results, cached
}

// tryResume restores the longest cached prefix snapshot usable for a
// budget-`budget` run into a fresh predictor. Returns (nil, _, 0) when
// no snapshot applies (or the predictor is not a Snapshotter).
func (e *Engine) tryResume(builder func() predictor.Predictor, config, suite string, b workload.Benchmark, budget int) (predictor.Predictor, Result, int) {
	group := SnapKey{Engine: EngineVersion, Config: config, Suite: suite, Trace: b.Name, Seed: b.Seed}
	for _, pos := range e.store.SnapshotPositions(group) {
		// A snapshot past this run's budget would overshoot the
		// measurement window (a shorter-budget run cannot un-simulate);
		// positions are sorted descending, so keep scanning.
		if pos > budget || pos <= 0 {
			continue
		}
		k := group
		k.Pos = pos
		payload, ok := e.store.LoadSnapshot(k)
		if !ok {
			continue
		}
		p := builder()
		sp, ok := p.(snap.Snapshotter)
		if !ok {
			return nil, Result{}, 0
		}
		partial, err := decodeSimState(payload, sp)
		if err != nil {
			// Corrupt or structurally mismatched snapshot: treat as a
			// miss and try the next shorter prefix.
			continue
		}
		e.resumed.Add(1)
		return p, partial, pos
	}
	return nil, Result{}, 0
}

// restoreAtOrBefore returns a predictor holding the exact stream state
// at the largest snapshotted position ≤ limit, or a fresh predictor at
// position 0 when none is cached.
func (e *Engine) restoreAtOrBefore(builder func() predictor.Predictor, config, suite string, b workload.Benchmark, limit int) (predictor.Predictor, int) {
	if e.store != nil {
		group := SnapKey{Engine: EngineVersion, Config: config, Suite: suite, Trace: b.Name, Seed: b.Seed}
		for _, pos := range e.store.SnapshotPositions(group) {
			if pos > limit || pos <= 0 {
				continue
			}
			k := group
			k.Pos = pos
			payload, ok := e.store.LoadSnapshot(k)
			if !ok {
				continue
			}
			p := builder()
			sp, ok := p.(snap.Snapshotter)
			if !ok {
				break
			}
			if _, err := decodeSimState(payload, sp); err != nil {
				continue
			}
			e.resumed.Add(1)
			return p, pos
		}
	}
	return builder(), 0
}

// saveSnapshot persists the predictor's state at stream position pos
// together with the counters measured over [0, pos), best-effort.
func (e *Engine) saveSnapshot(p predictor.Predictor, config, suite string, b workload.Benchmark, pos int, partial Result) {
	sp, ok := p.(snap.Snapshotter)
	if !ok {
		return
	}
	k := SnapKey{Engine: EngineVersion, Config: config, Suite: suite, Trace: b.Name, Seed: b.Seed, Pos: pos}
	if e.store.HasSnapshot(k) {
		return
	}
	_ = e.store.SaveSnapshot(k, encodeSimState(partial, sp))
}

// encodeSimState serializes a snapshot payload: the partial result
// counters over the simulated prefix, then the full predictor state.
func encodeSimState(partial Result, p snap.Snapshotter) []byte {
	enc := snap.NewEncoder()
	enc.Begin("simstate", 1)
	enc.U64(partial.Instructions)
	enc.U64(partial.Records)
	enc.U64(partial.Conditionals)
	enc.U64(partial.Mispredicted)
	p.Snapshot(enc)
	return enc.Bytes()
}

// decodeSimState restores a snapshot payload into p and returns the
// partial counters.
func decodeSimState(payload []byte, p snap.Snapshotter) (Result, error) {
	dec := snap.NewDecoder(payload)
	dec.Expect("simstate", 1)
	var partial Result
	partial.Instructions = dec.U64()
	partial.Records = dec.U64()
	partial.Conditionals = dec.U64()
	partial.Mispredicted = dec.U64()
	if err := dec.Err(); err != nil {
		return Result{}, err
	}
	if err := p.RestoreSnapshot(dec); err != nil {
		return Result{}, err
	}
	return partial, nil
}

// MergeShards combines the per-shard results of one benchmark by
// summing counters, so MPKI and misprediction rate become the
// instruction- and branch-weighted aggregates of the shards. The
// labels are taken from the first part.
func MergeShards(parts []Result) Result {
	if len(parts) == 0 {
		return Result{}
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out.Instructions += p.Instructions
		out.Records += p.Records
		out.Conditionals += p.Conditionals
		out.Mispredicted += p.Mispredicted
	}
	return out
}
