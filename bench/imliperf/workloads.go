package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/client"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scale sizes every workload. The benchmark's own runs use "default";
// "full" is the paper-scale shape the workloads were designed at, and
// "smoke" keeps the test suite fast.
type scale struct {
	// suite-imli: branch budget per trace and traces per suite (0 = all).
	suiteBudget, suiteTraces int
	// batch-light: branch budget per trace and traces per suite.
	batchBudget, batchTraces int
	// sweep-exact: ascending budgets, cbp4 traces, warm re-runs.
	sweepBudgets             []int
	sweepTraces, sweepReruns int
	// fleet-jobs: suite jobs per pass.
	fleetJobs int
}

var scales = map[string]scale{
	"smoke": {
		suiteBudget: 3000, suiteTraces: 2,
		batchBudget: 8000, batchTraces: 2,
		sweepBudgets: []int{1000, 2000}, sweepTraces: 2, sweepReruns: 2,
		fleetJobs: 6,
	},
	"default": {
		suiteBudget: 20000, suiteTraces: 0,
		batchBudget: 150000, batchTraces: 0,
		sweepBudgets: []int{2500, 5000, 10000, 20000, 40000}, sweepTraces: 0, sweepReruns: 20,
		fleetJobs: 100,
	},
	"full": {
		suiteBudget: 250000, suiteTraces: 0,
		batchBudget: 2000000, batchTraces: 0,
		sweepBudgets: []int{25000, 50000, 100000, 200000, 400000}, sweepTraces: 0, sweepReruns: 20,
		fleetJobs: 1000,
	},
}

// A workload is one pass body; its inputs come from the pass seed.
type workloadDef struct {
	name string
	run  func(p *pass) error
	// service workloads run concurrent jobs through the service stack,
	// where they wait on each other and on the workers' idle poll; the
	// others run the same jobs one at a time in every pass.
	service bool
}

var workloads = []workloadDef{
	{"suite-imli", runSuiteIMLI, false},
	{"batch-light", runBatchLight, false},
	{"sweep-exact", runSweepExact, false},
	{"fleet-jobs", runFleetJobs, true},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// The workloads' predictor configurations.
var (
	suiteConfigs = []string{"tage-gsc", "tage-gsc+imli", "gehl", "gehl+imli"}
	batchConfigs = []string{"bimodal", "gshare"}
	sweepConfig  = "tage-sc-l+imli"
	fleetConfig  = "gshare"
	suiteNames   = []string{"cbp4", "cbp3"}
)

const (
	// batchShards and sweepShards are the engine shard counts of
	// batch-light (warm-up sharding) and sweep-exact (ExactShards).
	batchShards = 8
	sweepShards = 8
)

// benches returns the first n benchmarks of a suite (all for n = 0),
// remixed for the pass seed (seed 0 keeps the base streams).
func benches(suite string, n int, seed int64) []workload.Benchmark {
	bs := workload.Suites()[suite]
	if n > 0 && n < len(bs) {
		bs = bs[:n]
	}
	return workload.Reseed(bs, seed)
}

// lanes is the engine's default worker count, which the traced passes'
// own item pools match.
func lanes() int { return runtime.GOMAXPROCS(0) }

// geometry is the engine shape of a local workload; traced passes
// rebuild the engine's work items from it.
type geometry struct {
	shards int
	exact  bool
}

// runJob runs one suite job — one configuration over one suite — and
// returns per-benchmark results. Untraced it is Engine.RunSuite.
// Traced, the benchmark schedules the engine's work items itself
// (Engine.RunItem over a pool of lanes goroutines, one span per item);
// the results are identical.
func (p *pass) runJob(eng *sim.Engine, g geometry, parent int64, cfg, suite string, bs []workload.Benchmark, budget int) ([]sim.Result, error) {
	if p.tr == nil {
		builder := func() predictor.Predictor { return predictor.MustNew(cfg) }
		return eng.RunSuite(builder, cfg, suite, bs, budget).Results, nil
	}
	var items []sim.ItemSpec
	var owner []int // benchmark index of each item
	for bi, b := range bs {
		it := sim.ItemSpec{Config: cfg, Suite: suite, Bench: b.Name, Seed: b.Seed, Budget: budget,
			Shards: g.shards, Warmup: sim.DefaultShardWarmup, Exact: g.exact}
		if g.exact || g.shards <= 1 {
			items, owner = append(items, it), append(owner, bi)
			continue
		}
		for s := 0; s < g.shards; s++ {
			it.Shard = s
			items, owner = append(items, it), append(owner, bi)
		}
	}
	out, err := p.runItems(eng, parent, items)
	if err != nil {
		return nil, err
	}
	parts := make([][]sim.Result, len(bs))
	for i, rs := range out {
		parts[owner[i]] = append(parts[owner[i]], rs...)
	}
	merged := make([]sim.Result, len(bs))
	for i := range parts {
		merged[i] = sim.MergeShards(parts[i])
	}
	return merged, nil
}

// runItems executes work items over lanes goroutines in item order, one
// "sim.item" span per Engine.RunItem call.
func (p *pass) runItems(eng *sim.Engine, parent int64, items []sim.ItemSpec) ([][]sim.Result, error) {
	out := make([][]sim.Result, len(items))
	errs := make([]error, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < lanes(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				s := p.tr.begin(parent, "sim.item")
				out[i], errs[i] = eng.RunItem(context.Background(), items[i])
				s.end()
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// suiteJob is one job of a local pass: one configuration over one
// suite's benchmarks, and its per-benchmark results.
type suiteJob struct {
	spec    client.Spec
	benches []workload.Benchmark
	results []sim.Result
}

// runSuiteJobs runs one job per configuration and suite, in that order,
// on eng, and records the pass's job latencies, wall time, results and
// engine counters.
func (p *pass) runSuiteJobs(eng *sim.Engine, g geometry, configs []string, traces, budget int) ([]suiteJob, error) {
	bs := map[string][]workload.Benchmark{}
	for _, s := range suiteNames {
		bs[s] = benches(s, traces, p.Seed)
	}
	p.ready()
	root := p.tr.begin(0, "pass")
	var jobs []suiteJob
	for _, cfg := range configs {
		for _, s := range suiteNames {
			span := p.tr.begin(root.id, "job")
			res, err := p.runJob(eng, g, span.id, cfg, s, bs[s], budget)
			p.rep.JobMS = append(p.rep.JobMS, ms(span.end()))
			if err != nil {
				return nil, err
			}
			spec := client.Spec{Type: client.JobSuite, Config: cfg, Suite: s, Budget: budget}
			jobs = append(jobs, suiteJob{spec, bs[s], res})
		}
	}
	p.rep.WallS = root.end().Seconds()
	p.rep.JobsS = p.rep.WallS
	for _, j := range jobs {
		p.addResults(j.results)
	}
	p.rep.Sim.add(eng.Stats())
	return jobs, nil
}

// runSuiteIMLI is the paper's Base vs +IMLI comparison: four
// configurations over cbp4 and cbp3, unsharded, no store, one default
// engine shared by every job (so its stream cache is shared too).
func runSuiteIMLI(p *pass) error {
	eng := sim.NewEngine(sim.EngineConfig{})
	jobs, err := p.runSuiteJobs(eng, geometry{shards: 1}, suiteConfigs, p.sc.suiteTraces, p.sc.suiteBudget)
	if err != nil {
		return err
	}
	if p.Check {
		// Each job's first benchmark against sim.RunBenchmark: the plain
		// Feed path, with no engine, stream cache or scheduling.
		for _, j := range jobs {
			p.checkUnsharded(j.results[0].Predictor, j.benches[0], p.sc.suiteBudget, j.results[0])
		}
	}
	if p.tr == nil {
		return nil
	}
	in := localProbe(jobs, suiteConfigs, p.sc.suiteBudget, eng, p.rep.WallS)
	in.want = in.results
	return p.traceLocal(sim.EngineConfig{}, in)
}

// runBatchLight runs the light predictors over long streams with 8-way
// warm-up sharding: generation, materialization, warm-up replay and
// engine scheduling dominate, not the predictor.
func runBatchLight(p *pass) error {
	eng := sim.NewEngine(sim.EngineConfig{Shards: batchShards})
	jobs, err := p.runSuiteJobs(eng, geometry{shards: batchShards}, batchConfigs, p.sc.batchTraces, p.sc.batchBudget)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		for _, r := range j.results {
			if r.Records != uint64(p.sc.batchBudget) {
				p.problem("batch-light %s/%s: %d measured records, want the budget %d", r.Predictor, r.Trace, r.Records, p.sc.batchBudget)
			}
		}
		if p.Check {
			// Warm-up sharding approximates mispredictions (DESIGN.md §5),
			// but the shards must partition the stream exactly: instruction
			// and conditional counts equal the stream prefix's.
			p.checkPartition(j.benches[0], p.sc.batchBudget, j.results[0])
		}
	}
	if p.tr == nil {
		return nil
	}
	in := localProbe(jobs, batchConfigs, p.sc.batchBudget, eng, p.rep.WallS)
	return p.traceLocal(sim.EngineConfig{Shards: batchShards}, in)
}

// localProbe describes a traced suite-imli or batch-light pass to the
// layer probes.
func localProbe(jobs []suiteJob, configs []string, budget int, eng *sim.Engine, wall float64) probeInput {
	in := probeInput{
		configs: configs, benches: probeBenches(jobs[0].benches, jobs[1].benches), budget: budget,
		engines: []*sim.Engine{eng}, passTime: wall, meanBudget: budget, lanes: lanes(),
	}
	for _, j := range jobs {
		in.results = append(in.results, j.results...)
		in.jobs = append(in.jobs, j.spec)
	}
	return in
}

// traceLocal runs a local workload's layer probes, sending its first two
// jobs through the service stack on the workload's engine configuration.
func (p *pass) traceLocal(eng sim.EngineConfig, in probeInput) error {
	if err := p.probeService(eng, in.jobs[:2]); err != nil {
		return err
	}
	return p.probe(in)
}

// runSweepExact is the paper's budget sweep with ExactShards over a
// fresh on-disk store (cold phase), then warm re-runs of the whole
// sweep from new engines over the populated store (warm phase). It is
// the only workload that encodes and decodes snapshots and writes and
// reads the store.
func runSweepExact(p *pass) error {
	bs := benches("cbp4", p.sc.sweepTraces, p.Seed)
	dir := filepath.Join(p.Dir, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g := geometry{shards: sweepShards, exact: true}
	cfg := sim.EngineConfig{Shards: sweepShards, ExactShards: true, Store: sim.OpenStore(dir)}
	eng := sim.NewEngine(cfg)
	p.ready()
	root := p.tr.begin(0, "pass")
	cold := p.tr.begin(root.id, "cold")
	var all [][]sim.Result
	for _, budget := range p.sc.sweepBudgets {
		job := p.tr.begin(cold.id, "job")
		res, err := p.runJob(eng, g, job.id, sweepConfig, "cbp4", bs, budget)
		job.end()
		if err != nil {
			return err
		}
		all = append(all, res)
	}
	p.rep.WallS = cold.end().Seconds()

	p.rep.Sim.add(eng.Stats())
	engines := []*sim.Engine{eng}
	warm := p.tr.begin(root.id, "warm")
	for r := 0; r < p.sc.sweepReruns; r++ {
		job := p.tr.begin(warm.id, "job")
		e := sim.NewEngine(cfg)
		for k, budget := range p.sc.sweepBudgets {
			res, err := p.runJob(e, g, job.id, sweepConfig, "cbp4", bs, budget)
			if err != nil {
				return err
			}
			if !equalResults(res, all[k]) {
				p.problem("sweep-exact: warm re-run %d differs from the cold run at budget %d", r, budget)
			}
		}
		p.rep.JobMS = append(p.rep.JobMS, ms(job.end()))
		if st := e.Stats(); st.Simulated != 0 {
			p.problem("sweep-exact: warm re-run %d simulated %d items, want every item from the store", r, st.Simulated)
		}
		p.rep.Sim.add(e.Stats())
		engines = append(engines, e)
	}
	p.rep.JobsS = warm.end().Seconds()
	total := root.end().Seconds()
	for _, rs := range all {
		p.addResults(rs)
	}
	if p.Check {
		// Exact sharding is bit-identical to an unsharded run.
		last := len(p.sc.sweepBudgets) - 1
		for i := 0; i < 2 && i < len(bs); i++ {
			p.checkUnsharded(sweepConfig, bs[i], p.sc.sweepBudgets[last], all[last][i])
		}
	}
	if p.tr == nil {
		return nil
	}
	in := probeInput{
		configs: []string{sweepConfig}, benches: probeBenches(bs), budget: p.sc.sweepBudgets[len(all)-1],
		want: all[len(all)-1], store: cfg.Store, engines: engines, passTime: total, lanes: lanes(),
	}
	for k, budget := range p.sc.sweepBudgets {
		in.results = append(in.results, all[k]...)
		in.jobs = append(in.jobs, client.Spec{Type: client.JobSuite, Config: sweepConfig, Suite: "cbp4", Budget: budget})
		in.meanBudget += budget / len(p.sc.sweepBudgets)
	}
	return p.traceLocal(cfg, in)
}

// checkUnsharded compares an engine result with sim.RunBenchmark, the
// plain Feed path.
func (p *pass) checkUnsharded(cfg string, b workload.Benchmark, budget int, got sim.Result) {
	want, err := sim.RunBenchmark(cfg, b, budget)
	if err != nil {
		p.problem("check %s/%s: %v", cfg, b.Name, err)
		return
	}
	if got != want {
		p.problem("check %s/%s: engine %+v, direct feed %+v", cfg, b.Name, got, want)
	}
}

// checkPartition compares a sharded result's stream accounting with the
// first budget records of the benchmark's stream.
func (p *pass) checkPartition(b workload.Benchmark, budget int, got sim.Result) {
	var instr, cond uint64
	n := 0
	b.Generate(budget, func(r trace.Record) {
		if n >= budget {
			return
		}
		n++
		instr += r.Instructions()
		if r.Conditional() {
			cond++
		}
	})
	if got.Instructions != instr || got.Conditionals != cond || got.Records != uint64(n) {
		p.problem("check %s/%s: sharded run counted %d instr %d cond %d records, stream prefix %d %d %d",
			got.Predictor, b.Name, got.Instructions, got.Conditionals, got.Records, instr, cond, n)
	}
}

func equalResults(a, b []sim.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probeBenches picks the benchmarks the layer probes replay: the first
// probeTraces, alternating between the given suites.
func probeBenches(suites ...[]workload.Benchmark) []workload.Benchmark {
	var out []workload.Benchmark
	for i := 0; len(out) < probeTraces; i++ {
		added := false
		for _, s := range suites {
			if i < len(s) && len(out) < probeTraces {
				out = append(out, s[i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return out
}
