package sim

import (
	"context"
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
// snapshots, and the Exact key field. Version 4: an exact shard chain
// is one merged result entry at the former shard-0 address. Version 5:
// snapshot files are packs (Store.SaveSnapshots); the bump gives them a
// tree of their own, where version 4 binaries, which would quarantine
// them, never look.
const EngineVersion = 5

// DefaultShardWarmup is the functional warm-up length (in branch
// records) every warm-up shard the engine schedules trains on before
// its measured segment. 10K records keeps the merged MPKI within a few
// percent of the unsharded run (see DESIGN.md §5).
const DefaultShardWarmup = 10000

// EngineConfig sizes the simulation engine.
type EngineConfig struct {
	// Workers bounds concurrent shard simulations; <=0 means
	// GOMAXPROCS. The bound is engine-wide: concurrent suite runs
	// sharing one engine also share the pool.
	Workers int
	// Shards splits each benchmark's branch budget into this many
	// contiguous segments of the deterministic stream, simulated as
	// independent work items that each train on DefaultShardWarmup
	// records before their segment; <=1 runs each benchmark
	// unsharded. See DESIGN.md §5 for the accuracy tolerance warm-up
	// sharding introduces, and ExactShards for the bit-exact mode.
	Shards int
	// ExactShards turns on the predictor-state snapshot layer
	// (DESIGN.md §8). With a Store, an unsharded run
	// saves its end-of-run predictor state, and a later, longer-budget
	// run of the same (config, trace, seed) resumes from the longest
	// stored prefix instead of record 0 — a budget sweep costs
	// max(budget) simulation work instead of sum(budgets). Sharded
	// runs chain through boundary snapshots instead of functional
	// warm-up: a benchmark's shards execute as one chained work item on
	// one worker (parallelism comes from benchmarks and
	// configurations), a checkpointed unsharded run that snapshots
	// every shard boundary it crosses, so merged counters are
	// bit-identical to the unsharded run (no §5 tolerance). A chain
	// resumes like an unsharded run — a canceled chain or a budget
	// extension continues incrementally — and its merged result is one
	// store entry. Predictors that do not implement
	// predictor.Snapshotter run cold.
	ExactShards bool
	// Store, when non-nil, caches work-item results (and snapshots) on
	// disk so repeated runs are incremental.
	Store *Store
	// StreamMemory bounds the engine's materialized-stream cache
	// (DESIGN.md §6): 0 means workload.DefaultStreamMemory, <0 makes
	// the cache decline every stream so every shard regenerates its
	// stream prefix (the pre-stream-layer behaviour).
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
	// <=0 defaults to 8×GOMAXPROCS when Remote is set.
	Remote RemoteRunner
}

// EngineStats counts what an engine did across its lifetime. Work is
// counted in shards: an exact chain counts as its Shards shards,
// whether simulated or served from its one store entry.
type EngineStats struct {
	// Simulated is the number of shards actually simulated.
	Simulated uint64
	// CacheHits is the number of shards served by the store.
	CacheHits uint64
	// RecordsSimulated is the total number of branch records fed to
	// predictors (replay, warm-up and measured) — the engine's total
	// simulation work, the quantity snapshot resume exists to cut.
	RecordsSimulated uint64
	// Resumed is the number of work items that started from a cached
	// predictor-state snapshot instead of record 0.
	Resumed uint64
}

// Engine executes (configuration × benchmark × shard) work items — one
// chain item per benchmark under ExactShards — over a bounded worker
// pool, merging per-shard results into per-benchmark Results. Every
// work item starts from a predictor in its freshly built state (the CBP
// methodology: traces — and here shards — are independent runs),
// except when a cached snapshot supplies the exact state of a stream
// prefix (ExactShards). That predictor is not necessarily a newly built
// one: the engine keeps each configuration's finished predictors and
// resets one to the configuration's pristine snapshot for the next item
// (DESIGN.md §5).
type Engine struct {
	workers int
	shards  int
	// exact is ExactShards: snapshot resume and boundary chaining.
	exact   bool
	store   *Store
	streams *workload.StreamCache
	// sem is the engine-wide worker bound: every work item, from every
	// concurrent RunSuite call sharing this engine, holds one slot
	// while it simulates. Long-running services (internal/serve) rely
	// on this to run many jobs over one engine without oversubscribing
	// the machine.
	sem chan struct{}
	// remote, when non-nil, dispatches registry-rebuildable work items
	// to another process (DESIGN.md §14).
	remote RemoteRunner
	// pools holds each configuration name's predictor pool.
	poolsMu   sync.Mutex
	pools     map[string]*predictorPool
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
	return &Engine{
		workers: cfg.Workers, shards: cfg.Shards, exact: cfg.ExactShards,
		store: cfg.Store, streams: workload.NewStreamCache(cfg.StreamMemory, ""),
		remote: cfg.Remote,
		sem:    make(chan struct{}, cfg.Workers),
		pools:  map[string]*predictorPool{},
	}
}

// Streams returns the engine's materialized-stream cache. It is never
// nil; with a negative EngineConfig.StreamMemory it declines every
// stream.
func (e *Engine) Streams() *workload.StreamCache { return e.streams }

// Stats returns cumulative work counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Simulated: e.simulated.Load(), CacheHits: e.hits.Load(),
		RecordsSimulated: e.records.Load(), Resumed: e.resumed.Load(),
	}
}

// ItemEvent reports one completed shard of one benchmark to a
// RunSuiteContext progress callback.
type ItemEvent struct {
	// Trace names the work item's benchmark.
	Trace string
	// Shard is the shard index within its benchmark.
	Shard int
	// Done counts shards completed so far in this RunSuiteContext call;
	// Total is the number the call will execute. Done == Total on the
	// final event.
	Done, Total int
	// Cached reports that the shard was served from the result store
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
// the configuration and keys the store and the engine's predictor pool
// (so it must uniquely identify what builder builds). Results come back
// in benchmark order and are deterministic regardless of worker count.
func (e *Engine) RunSuite(builder func() predictor.Predictor, name, suite string, benches []workload.Benchmark, budget int) SuiteRun {
	run, _ := e.RunSuiteContext(context.Background(), builder, name, suite, benches, budget, nil)
	return run
}

// RunSuiteContext is RunSuite with cancellation and per-item progress.
// When ctx is canceled the run stops scheduling work items and returns
// the context's error; the partial SuiteRun must be discarded (skipped
// benchmarks read as zero results), but every item that did complete
// was stored normally — and a canceled exact chain saved a snapshot at
// each shard boundary it crossed when it stopped — so a re-run is
// incremental. onItem,
// when non-nil, is invoked once per shard as it completes (an exact
// chain reports each shard as it crosses that shard's end); calls are
// serialized and Done is strictly increasing, so callers may forward
// events without locking.
func (e *Engine) RunSuiteContext(ctx context.Context, builder func() predictor.Predictor, name, suite string, benches []workload.Benchmark, budget int, onItem func(ItemEvent)) (SuiteRun, error) {
	run := SuiteRun{Config: name, Suite: suite, Results: make([]Result, len(benches))}
	// An exact chain is one work item covering every shard of its
	// benchmark: shard i needs the predictor state at shard i-1's
	// boundary, so the pool parallelizes across benchmarks instead.
	perBench := e.shards
	if e.exact {
		perBench = 1
	}
	parts := make([]Result, len(benches)*perBench)
	total := len(benches) * e.shards
	var progressMu sync.Mutex
	done, cached := 0, 0
	e.forEach(ctx, len(parts), func(i int) {
		b := benches[i/perBench]
		parts[i] = e.runShard(ctx, builder, b, e.item(name, suite, b, budget, i%perBench), func(shard int, hit bool) {
			progressMu.Lock()
			defer progressMu.Unlock()
			done++
			if hit {
				cached++
			}
			if onItem != nil {
				onItem(ItemEvent{Trace: b.Name, Shard: shard, Done: done, Total: total, Cached: hit})
			}
		})
	})

	for i := range benches {
		run.Results[i] = MergeShards(parts[i*perBench : (i+1)*perBench])
	}
	run.RanShards = total - cached
	run.CachedShards = cached
	return run, ctx.Err()
}

// feedWindow advances p over a window of b's deterministic stream:
// records before skip are not fed (they are either outside the
// warm-up window or already incorporated in a restored snapshot),
// records in [skip, start) train the predictor unmeasured, and records
// in [start, end) are measured. It prefers the materialized stream
// (DESIGN.md §6), which the cache serves from b's resident stream at
// any budget within its length, and falls back to callback generation.
// once reports that the item reads the stream a single time: the cache
// then declines a request no resident stream serves until the trace's
// stream is asked for again within the longest budget it declined
// (StreamCache.GetAdmitted). Returns the measured result, the stream
// position the predictor ended at, and the number of records actually
// fed.
func (e *Engine) feedWindow(p predictor.Predictor, b workload.Benchmark, budget, skip, start, end int, once bool) (res Result, finalPos, fed int) {
	var stream *workload.Stream
	if once {
		stream = e.streams.GetAdmitted(b, budget)
	} else {
		stream = e.streams.Get(b, budget)
	}
	if stream != nil {
		// The served stream is exactly the Generate(budget) output,
		// including the overshoot to the next budget check, so an
		// unsharded run's unbounded window clamps to the identical
		// record set a plain Feed would see.
		res = feedStream(p, stream, skip, start, end)
		finalPos = stream.Len()
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

// item returns the engine-geometry work item for shard of b, or under
// ExactShards the chain covering all of b's shards.
func (e *Engine) item(config, suite string, b workload.Benchmark, budget, shard int) ItemSpec {
	it := ItemSpec{Config: config, Suite: suite, Bench: b.Name, Seed: b.Seed,
		Budget: budget, Shard: shard, Shards: e.shards}
	if e.exact && e.shards > 1 {
		it.Exact = true
	} else {
		it.Warmup = DefaultShardWarmup
	}
	return it
}

// runShard serves one work item, dispatching it to the RemoteRunner
// when one is configured and the item is rebuildable by name on the
// other side (DESIGN.md §14); everything else takes the local path.
// emit reports each shard the item covers.
func (e *Engine) runShard(ctx context.Context, builder func() predictor.Predictor, b workload.Benchmark, item ItemSpec, emit func(shard int, hit bool)) Result {
	if e.remote != nil && e.remoteEligible(item.Config, item.Bench) {
		return e.runItemRemote(ctx, item, emit)
	}
	return e.runShardGeom(ctx, builder, b, item, emit)
}

// loadItem serves an item from the store, counting one cache hit and
// emitting one cached event per shard it covers.
func (e *Engine) loadItem(item ItemSpec, emit func(shard int, hit bool)) (Result, bool) {
	if e.store == nil {
		return Result{}, false
	}
	res, ok := e.store.Load(item.key())
	if !ok {
		return Result{}, false
	}
	first, end := item.shardRange()
	e.hits.Add(uint64(end - first))
	for s := first; s < end; s++ {
		emit(s, true)
	}
	return res, true
}

// runShardGeom serves one work item locally with the item's geometry —
// the engine's for local suite runs, the leased item's when a worker
// daemon executes it (Engine.RunItem), so the store key and the
// simulated window are those of the dispatching coordinator, not of
// the worker's own configuration. The item's predictor comes from the
// engine's pool for its configuration and goes back to it when the
// item ends. A plain shard reads its window of
// the benchmark's materialized stream (generated once per (trace,
// seed) and shared across shards, configurations and budgets; see
// DESIGN.md §6), discards records before its warm-up window, trains
// unmeasured through the window, and measures its segment. An
// unsharded run reads its stream once, so it materializes the stream
// only when the trace was requested before. Unsharded
// runs and exact chains measure the whole stream from record 0; with
// the snapshot layer on they first resume from the longest cached
// prefix within the budget and snapshot their state at the end, and an
// exact chain also at every shard boundary it crosses (DESIGN.md §8),
// which is what makes its merged counters bit-identical to the
// unsharded run. The item holds those snapshots in memory and saves
// them as one pack when it ends. A canceled ctx stops the item at its
// next shard boundary, unstored; an exact chain still saves the
// boundary snapshots it took.
func (e *Engine) runShardGeom(ctx context.Context, builder func() predictor.Predictor, b workload.Benchmark, item ItemSpec, emit func(shard int, hit bool)) Result {
	if res, ok := e.loadItem(item, emit); ok {
		return res
	}
	if err := faultinject.Err("sim/engine.item"); err != nil {
		// Injected work-item failure: panic so forEach re-raises on the
		// caller, the same path a real simulation bug would take.
		panic(err)
	}
	budget, shards, chain := item.Budget, item.Shards, item.chain()
	// Records in [skip, start) train unmeasured; [start, end) is
	// measured. Unsharded runs and exact chains keep the generator's
	// episode-granular overshoot, bit-identical to a plain Feed.
	skip, start, end := 0, 0, noLimit
	if shards > 1 && !chain {
		start = workload.ShardStart(budget, item.Shard, shards)
		end = start + workload.ShardBudget(budget, item.Shard, shards)
		skip = max(start-item.Warmup, 0)
	}
	pool := e.pool(item.Config)
	var p predictor.Predictor
	var res Result
	canSnapshot := e.store != nil && (chain || e.exact && shards == 1)
	group := SnapKey{Engine: EngineVersion, Config: item.Config, Suite: item.Suite, Trace: b.Name, Seed: b.Seed}
	// taken holds the boundary snapshots until the item ends; sizeHint
	// is the last payload's length, which the next one will be close to.
	var taken []SnapEntry
	sizeHint := 0
	if canSnapshot {
		if rp, part, pos, size := e.resume(pool, builder, group, budget); rp != nil {
			// The snapshot carries both the exact predictor state at
			// pos and the counters measured over [0, pos); measurement
			// continues at pos.
			p, res, skip, start, sizeHint = rp, part, pos, pos, size
		}
	}
	if p == nil {
		p = pool.fresh(builder)
	}
	res.Trace, res.Predictor = b.Name, p.Name()
	first, last := item.shardRange()
	for s := first; s < last; s++ {
		segEnd := end
		if chain && s < last-1 {
			segEnd = workload.ShardStart(budget, s+1, shards)
		}
		// A chain segment behind the resume point is already in res.
		if segEnd > start {
			if ctx.Err() != nil {
				if canSnapshot {
					// Best-effort, like every store write below.
					_ = e.store.SaveSnapshots(group, taken)
				}
				pool.put(p)
				return Result{}
			}
			part, finalPos, fed := e.feedWindow(p, b, budget, skip, start, segEnd, shards == 1)
			res = res.add(part)
			skip, start = finalPos, finalPos
			e.records.Add(uint64(fed))
			if canSnapshot && finalPos > 0 {
				// Measurement runs from record 0 here, so res is the
				// resume payload for [0, finalPos).
				if en, ok := e.snapshot(p, group, finalPos, res, sizeHint); ok {
					taken = append(taken, en)
					sizeHint = len(en.Payload)
				}
			}
		}
		emit(s, false)
	}
	pool.put(p)
	e.simulated.Add(uint64(last - first))
	if e.store != nil {
		// Best-effort: a full disk or read-only cache directory must
		// not fail the simulation; the run simply stays uncached.
		_ = e.store.SaveSnapshots(group, taken)
		_ = e.store.Save(item.key(), res)
	}
	return res
}

// resume restores the state at the largest cached snapshot position in
// (0, limit] of group into a predictor from pool — a pooled one as its
// last item left it, since the restore overwrites all of its state, or
// builder's — returning it with the counters measured over [0, pos),
// pos, and the payload's size. A payload that fails to decode is
// quarantined, so the next run that reaches pos rewrites it, and the
// scan falls back to the next shorter prefix; the predictor it failed
// on is dropped. Returns (nil, _, 0, 0) when no snapshot applies (none
// cached, no store, or the predictor is not a Snapshotter).
func (e *Engine) resume(pool *predictorPool, builder func() predictor.Predictor, group SnapKey, limit int) (predictor.Predictor, Result, int, int) {
	if e.store == nil {
		return nil, Result{}, 0, 0
	}
	for _, pos := range e.store.SnapshotPositions(group) {
		// A snapshot past the limit would overshoot the measurement
		// window (a shorter run cannot un-simulate); positions are
		// sorted descending, so keep scanning.
		if pos > limit || pos <= 0 {
			continue
		}
		k := group
		k.Pos = pos
		payload, ok := e.store.LoadSnapshot(k)
		if !ok {
			continue
		}
		p, _ := pool.take()
		if p == nil {
			p = pool.build(builder)
		}
		sp, ok := p.(snap.Snapshotter)
		if !ok {
			return nil, Result{}, 0, 0
		}
		partial, err := decodeSimState(payload, sp)
		if err != nil {
			// Corrupt or structurally mismatched snapshot; p's state is
			// now unspecified, so it is not pooled again.
			e.store.quarantineSnapshot(k)
			continue
		}
		e.resumed.Add(1)
		return p, partial, pos, len(payload)
	}
	return nil, Result{}, 0, 0
}

// snapshot encodes the predictor's state at stream position pos
// together with the counters measured over [0, pos), unless the store
// already holds that position or the predictor cannot snapshot.
// sizeHint pre-sizes the encoder.
func (e *Engine) snapshot(p predictor.Predictor, group SnapKey, pos int, partial Result, sizeHint int) (SnapEntry, bool) {
	sp, ok := p.(snap.Snapshotter)
	if !ok {
		return SnapEntry{}, false
	}
	k := group
	k.Pos = pos
	if e.store.HasSnapshot(k) {
		return SnapEntry{}, false
	}
	return SnapEntry{Pos: pos, Payload: encodeSimState(partial, sp, sizeHint)}, true
}

// encodeSimState serializes a snapshot payload: the partial result
// counters over the simulated prefix, then the full predictor state.
// The encoder starts with room for sizeHint bytes, and every call
// returns a buffer of its own.
func encodeSimState(partial Result, p snap.Snapshotter, sizeHint int) []byte {
	enc := snap.NewEncoderSize(sizeHint)
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
		out = out.add(p)
	}
	return out
}

// add returns r with o's counters added; the labels stay r's.
func (r Result) add(o Result) Result {
	r.Instructions += o.Instructions
	r.Records += o.Records
	r.Conditionals += o.Conditionals
	r.Mispredicted += o.Mispredicted
	return r
}
