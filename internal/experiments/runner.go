// Package experiments defines one runnable experiment per table and
// figure of the paper's evaluation (see the per-experiment index in
// DESIGN.md §4). Each experiment renders the same rows/series the
// paper reports and exposes key scalar metrics for tests and for
// EXPERIMENTS.md (render it with cmd/imlireport). Suite runs are
// cached inside a Runner so experiments that share configurations
// (most of them) do not re-simulate, and in the runner's engine's
// on-disk result store, when it has one (sim.EngineConfig.CacheDir),
// so repeated runs are incremental across processes.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Params scales the simulations.
type Params struct {
	// Budget is the number of branch records generated per trace.
	Budget int
	// Progress, when non-nil, receives one line per completed suite
	// run (with cache accounting when a result store is configured).
	Progress io.Writer
	// Engine executes the runner's suite simulations; nil means a
	// default engine (sim.NewEngine with a zero EngineConfig). The
	// engine's configuration — worker pool, sharding, result store,
	// stream cache, snapshots — decides how the runs execute. Runners
	// sharing one engine share all of those, the way the imlid service
	// (internal/serve, DESIGN.md §9) backs many concurrent jobs with
	// one engine.
	Engine *sim.Engine
	// Context, when non-nil, cancels the runner's simulations: suite
	// runs started after cancellation return immediately and partially
	// simulated ones stop at the next work-item boundary. A canceled
	// runner's reports are built from partial counters and must be
	// discarded (the service marks such jobs canceled); completed work
	// items were stored normally, so a re-run is incremental.
	Context context.Context
	// Seeds lists the stream-seed variants a seed sweep fans out over
	// (DESIGN.md §10). Nil or empty means {0}: the base seed only,
	// bit-identical to a pre-seed-dimension run. Variant 0 is always
	// the base stream; other variants deterministically remix every
	// benchmark's seed (workload.Benchmark.Reseeded), so per-seed runs
	// reuse the result store, snapshots, and exact sharding unchanged —
	// the seed is already part of every store key. The list must be
	// duplicate-free (CheckSeeds): a duplicated seed would silently
	// double-weight one stream instance in every mean and interval.
	// NewRunner panics on duplicates; callers accepting user input
	// validate with CheckSeeds first (the facade and CLIs do).
	Seeds []int64
}

// CheckSeeds rejects seed lists that would corrupt sweep statistics:
// a duplicated seed is the same deterministic stream counted twice.
func CheckSeeds(seeds []int64) error {
	seen := make(map[int64]bool, len(seeds))
	for _, s := range seeds {
		if seen[s] {
			return fmt.Errorf("experiments: duplicate seed %d in seed list %v", s, seeds)
		}
		seen[s] = true
	}
	return nil
}

// SeedList returns the canonical n-seed sweep list {0, 1, …, n−1} —
// what a `-seeds n` flag means. n <= 1 returns nil (the base seed
// only).
func SeedList(n int) []int64 {
	if n <= 1 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// DefaultParams runs the full-size evaluation.
func DefaultParams() Params { return Params{Budget: 250000} }

// QuickParams is a reduced size for benchmarks and tests; shapes hold
// but absolute numbers are noisier.
func QuickParams() Params { return Params{Budget: 40000} }

// Runner executes and caches suite simulations. The in-memory map
// deduplicates suite runs inside one process; the engine's result
// store, when it has one, makes them incremental across processes.
type Runner struct {
	params Params

	mu      sync.Mutex
	suites  map[string][]workload.Benchmark
	cache   map[string]sim.SuiteRun
	started map[string]chan struct{}
}

// NewRunner returns a Runner with the given parameters.
func NewRunner(p Params) *Runner {
	if p.Budget <= 0 {
		p.Budget = DefaultParams().Budget
	}
	if p.Context == nil {
		p.Context = context.Background()
	}
	if err := CheckSeeds(p.Seeds); err != nil {
		panic(err)
	}
	if p.Engine == nil {
		p.Engine = sim.NewEngine(sim.EngineConfig{})
	}
	return &Runner{
		params:  p,
		suites:  workload.Suites(),
		cache:   map[string]sim.SuiteRun{},
		started: map[string]chan struct{}{},
	}
}

// Params returns the runner's parameters.
func (r *Runner) Params() Params { return r.params }

// EngineStats reports how much work the runner's engine simulated
// versus served from the on-disk store.
func (r *Runner) EngineStats() sim.EngineStats { return r.params.Engine.Stats() }

// Suite returns the (cached) run of a registry configuration over a
// suite ("cbp4" or "cbp3").
func (r *Runner) Suite(config, suite string) sim.SuiteRun {
	return r.suiteWith(config+"@"+suite, suite, func() predictor.Predictor {
		return predictor.MustNew(config)
	}, config)
}

// SuiteWith returns the (cached) run of a custom-built configuration.
// key must uniquely identify the configuration.
func (r *Runner) SuiteWith(key, suite string, builder func() predictor.Predictor) sim.SuiteRun {
	return r.suiteWith(key+"@"+suite, suite, builder, key)
}

// SuiteAtBudget is Suite at an explicit branch budget instead of the
// runner's Params.Budget — the primitive behind budget sweeps. When the
// runner's engine has ExactShards on and a result store, an ascending
// sweep resumes each run from the previous budget's end snapshot, so
// the sweep costs max(budget) simulation work instead of sum(budgets)
// (DESIGN.md §8).
func (r *Runner) SuiteAtBudget(config, suite string, budget int) sim.SuiteRun {
	if budget <= 0 || budget == r.params.Budget {
		return r.Suite(config, suite)
	}
	return r.suiteAt(fmt.Sprintf("%s@%s@b%d", config, suite, budget), suite, func() predictor.Predictor {
		return predictor.MustNew(config)
	}, config, budget, 0)
}

// Seeds returns the runner's effective seed list: Params.Seeds, or
// {0} (the base seed) when none were configured.
func (r *Runner) Seeds() []int64 {
	if len(r.params.Seeds) == 0 {
		return []int64{0}
	}
	return append([]int64(nil), r.params.Seeds...)
}

// SuiteSeeded returns the (cached) run of a registry configuration
// over seed variant `seed` of a suite. Variant 0 is exactly Suite —
// same in-memory cache entry, same store keys — so a sweep containing
// 0 shares every base-seed simulation with the seed-unaware
// experiments.
func (r *Runner) SuiteSeeded(config, suite string, seed int64) sim.SuiteRun {
	if seed == 0 {
		return r.Suite(config, suite)
	}
	key := fmt.Sprintf("%s@%s@seed%d", config, suite, seed)
	return r.suiteAt(key, suite, func() predictor.Predictor {
		return predictor.MustNew(config)
	}, config, r.params.Budget, seed)
}

// SuiteSweep runs a configuration over every seed of the runner's seed
// list (Params.Seeds, default {0}) and returns the per-seed runs in
// seed-list order — the (config × bench × seed) fan-out behind every
// mean ± CI the harness reports. Work items flow through the same
// engine as single-seed runs: per-seed results and snapshots land in
// the same store (the seed is part of every key), so sweeps are
// incremental and bit-reproducible like everything else.
func (r *Runner) SuiteSweep(config, suite string) []sim.SuiteRun {
	return r.SuiteSweepSeeds(config, suite, r.Seeds())
}

// SuiteSweepSeeds is SuiteSweep over an explicit seed list.
func (r *Runner) SuiteSweepSeeds(config, suite string, seeds []int64) []sim.SuiteRun {
	out := make([]sim.SuiteRun, len(seeds))
	for i, s := range seeds {
		out[i] = r.SuiteSeeded(config, suite, s)
	}
	return out
}

// SweepAvgMPKI extracts the per-seed suite-average MPKI of a sweep, in
// sweep order — the sample PairedDiff consumes for suite-level claims.
func SweepAvgMPKI(runs []sim.SuiteRun) []float64 {
	out := make([]float64, len(runs))
	for i, run := range runs {
		out[i] = run.AvgMPKI()
	}
	return out
}

// SweepMPKIByTrace extracts trace → per-seed MPKI (in sweep order)
// from a sweep — the per-benchmark samples behind mean ± CI columns.
func SweepMPKIByTrace(runs []sim.SuiteRun) map[string][]float64 {
	out := map[string][]float64{}
	for _, run := range runs {
		for _, res := range run.Results {
			out[res.Trace] = append(out[res.Trace], res.MPKI())
		}
	}
	return out
}

func (r *Runner) suiteWith(cacheKey, suite string, builder func() predictor.Predictor, name string) sim.SuiteRun {
	return r.suiteAt(cacheKey, suite, builder, name, r.params.Budget, 0)
}

func (r *Runner) suiteAt(cacheKey, suite string, builder func() predictor.Predictor, name string, budget int, seed int64) sim.SuiteRun {
	r.mu.Lock()
	if run, ok := r.cache[cacheKey]; ok {
		r.mu.Unlock()
		return run
	}
	if ch, running := r.started[cacheKey]; running {
		r.mu.Unlock()
		<-ch
		r.mu.Lock()
		run := r.cache[cacheKey]
		r.mu.Unlock()
		return run
	}
	ch := make(chan struct{})
	r.started[cacheKey] = ch
	benches := workload.Reseed(r.suites[suite], seed)
	r.mu.Unlock()

	run, _ := r.params.Engine.RunSuiteContext(r.params.Context, builder, name, suite, benches, budget, nil)

	r.mu.Lock()
	r.cache[cacheKey] = run
	delete(r.started, cacheKey)
	close(ch)
	r.mu.Unlock()
	if r.params.Progress != nil {
		if run.CachedShards > 0 {
			fmt.Fprintf(r.params.Progress, "ran %-24s %s: %.3f MPKI (%d/%d shards cached)\n",
				name, suite, run.AvgMPKI(), run.CachedShards, run.CachedShards+run.RanShards)
		} else {
			fmt.Fprintf(r.params.Progress, "ran %-24s %s: %.3f MPKI\n", name, suite, run.AvgMPKI())
		}
	}
	return run
}

// MPKIByTrace returns trace name → MPKI for a run.
func MPKIByTrace(run sim.SuiteRun) map[string]float64 {
	m := make(map[string]float64, len(run.Results))
	for _, res := range run.Results {
		m[res.Trace] = res.MPKI()
	}
	return m
}

// TraceNames returns the trace names of a suite, in suite order.
func (r *Runner) TraceNames(suite string) []string {
	benches := r.suites[suite]
	out := make([]string, len(benches))
	for i, b := range benches {
		out[i] = b.Name
	}
	return out
}

// Report is the output of one experiment.
type Report struct {
	// ID is the experiment identifier (e1, fig8, table1, ...).
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Text is the rendered report (tables/series).
	Text string
	// Values holds key metrics for tests and EXPERIMENTS.md, keyed by
	// stable names.
	Values map[string]float64
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) Report
}

var experimentList []Experiment

func register(e Experiment) { experimentList = append(experimentList, e) }

// All returns every experiment in declaration order.
func All() []Experiment { return append([]Experiment(nil), experimentList...) }

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range experimentList {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// Select resolves an experiment selection — "all", or comma-separated
// IDs with optional spaces around each — into experiments, in the
// order given.
func Select(list string) ([]Experiment, error) {
	if list == "all" {
		return All(), nil
	}
	var out []Experiment
	for _, id := range strings.Split(list, ",") {
		e, err := ByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// IDs lists all experiment IDs, sorted.
func IDs() []string {
	out := make([]string, len(experimentList))
	for i, e := range experimentList {
		out[i] = e.ID
	}
	sort.Strings(out)
	return out
}
