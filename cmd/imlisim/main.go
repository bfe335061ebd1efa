// Command imlisim runs predictor configurations over synthetic
// benchmarks or on-disk traces and reports MPKI. Suite and benchmark
// runs go through the sharded parallel engine: -parallel bounds the
// worker pool, -shards splits each benchmark into independent work
// items, and -cache-dir makes repeated runs incremental via the
// on-disk result store. Each benchmark's record stream is materialized
// once per run and shared across shards and configurations;
// -stream-mem bounds the resident memory of those streams.
// -exact-shards turns on the snapshot layer: with -cache-dir, full
// predictor state is persisted at run boundaries so a later,
// longer-budget run of the same configuration resumes from the cached
// prefix instead of record 0, and sharded runs chain snapshots across
// shard boundaries so their results are bit-identical to unsharded
// runs; -cache-prune deletes entries stranded by engine-version bumps.
// A fleet of worker processes is imlid -coordinator plus
// cmd/imliworker (DESIGN.md §14).
//
// Usage:
//
//	imlisim -predictor=tage-gsc+imli -suite=cbp4
//	imlisim -predictor=gehl -bench=SPEC2K6-12 -branches=500000
//	imlisim -predictor=tage-gsc -trace=out/SPEC2K6-12.imlt
//	imlisim -suite=cbp4 -all-configs -shards=4 -cache-dir=.imli-cache
//	imlisim -suite=cbp4 -branches=200000 -exact-shards -cache-dir=.imli-cache
//	imlisim -predictor=tage-gsc -suite=cbp4 -seeds=5   # mean ± 95% CI per trace
//	imlisim -cache-dir=.imli-cache -cache-prune
//	imlisim -predictors            # list configurations
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/btb"
	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "imlisim:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("imlisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	config := fs.String("predictor", "tage-gsc+imli", "predictor configuration name")
	suite := fs.String("suite", "", "run a whole suite: cbp4 or cbp3")
	bench := fs.String("bench", "", "run a single synthetic benchmark by name")
	traceFile := fs.String("trace", "", "run an on-disk trace file")
	branches := fs.Int("branches", 250000, "branch records per synthetic trace")
	eng := cliflags.Register(fs)
	seeds := cliflags.RegisterSeeds(fs)
	cachePrune := fs.Bool("cache-prune", false, "delete cache entries from stale engine versions under -cache-dir, then exit (unless a run is requested)")
	allConfigs := fs.Bool("all-configs", false, "batch mode: run every registry configuration over -suite or -bench")
	listPredictors := fs.Bool("predictors", false, "list predictor configurations and exit")
	listBenches := fs.Bool("benchmarks", false, "list benchmark names and exit")
	targets := fs.Bool("targets", false, "also report fetch-target prediction (BTB/RAS/indirect) for -bench")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if err := cliflags.Positive("branches", *branches); err != nil {
		return err
	}

	// The three source flags are mutually exclusive: silently ignoring
	// one would report numbers for a different workload than asked.
	sources := 0
	for _, s := range []string{*suite, *bench, *traceFile} {
		if s != "" {
			sources++
		}
	}
	if sources > 1 {
		return fmt.Errorf("conflicting source flags: pass exactly one of -suite, -bench, -trace")
	}
	// A trace file runs whole and unsharded through sim.RunReader, not
	// on the engine; name every engine flag that would be dropped.
	if *traceFile != "" {
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "branches", "shards", "exact-shards", "parallel", "stream-mem":
				ignored = append(ignored, "-"+f.Name)
			case "cache-dir":
				if !*cachePrune {
					ignored = append(ignored, "-cache-dir")
				}
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("%s cannot be used with -trace, which simulates the whole file unsharded, outside the engine", strings.Join(ignored, ", "))
		}
	}
	// The target report replays one synthetic benchmark; every other
	// mode would drop it without a word.
	if *targets && (*bench == "" || *allConfigs) {
		return fmt.Errorf("-targets applies to a single -bench run, not -suite, -trace or -all-configs")
	}

	seedList, err := cliflags.SeedList(*seeds)
	if err != nil {
		return err
	}
	if len(seedList) > 0 {
		// A seed sweep reruns the deterministic synthetic streams under
		// remixed seeds; an on-disk trace has exactly one instance, and
		// the batch ranking would need a third table dimension.
		switch {
		case *traceFile != "":
			return fmt.Errorf("-seeds applies to synthetic workloads (-suite or -bench), not -trace")
		case *allConfigs:
			return fmt.Errorf("-seeds does not combine with -all-configs; sweep one -predictor at a time")
		case *targets:
			return fmt.Errorf("-seeds does not combine with -targets")
		}
	}

	if *cachePrune {
		if eng.CacheDir == "" {
			return fmt.Errorf("-cache-prune needs -cache-dir")
		}
		st, err := sim.OpenStore(eng.CacheDir).Prune(sim.EngineVersion)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "pruned %d stale cache entries (%.1f MiB) in %d directories; kept v%d\n",
			st.Files, float64(st.Bytes)/(1<<20), st.Dirs, sim.EngineVersion)
		if sources == 0 && !*allConfigs && !*listPredictors && !*listBenches {
			return nil
		}
	}

	engine := sim.NewEngine(eng.Config())
	switch {
	case *listPredictors:
		names := predictor.Names()
		for _, n := range names {
			p := predictor.MustNew(n)
			fmt.Fprintf(stdout, "%-22s %6d Kbits\n", n, p.StorageBits()/1024)
		}
		return nil
	case *listBenches:
		for _, n := range workload.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	case *allConfigs:
		if *traceFile != "" {
			return fmt.Errorf("-all-configs works on -suite or -bench, not -trace")
		}
		return runAllConfigs(stdout, engine, *suite, *bench, *branches)
	case *traceFile != "":
		return runTraceFile(stdout, *config, *traceFile)
	case *bench != "":
		b, err := workload.ByName(*bench)
		if err != nil {
			return err
		}
		if err := predictor.Check(*config); err != nil {
			return err
		}
		if len(seedList) > 0 {
			return runBenchSweep(stdout, engine, *config, b, *branches, seedList)
		}
		printResult(stdout, runConfig(engine, *config, b.Suite, []workload.Benchmark{b}, *branches).Results[0])
		if *targets {
			tr := sim.RunTargets(btb.New(btb.DefaultConfig()), b, *branches)
			fmt.Fprintf(stdout, "targets: %.2f%% of taken transfers missed; RAS %d/%d correct; "+
				"IMLI backward-hint coverage %.1f%%\n",
				tr.TargetMissRate()*100, tr.Stats.RASCorrect, tr.Stats.RASPops,
				tr.HintCoverage()*100)
		}
		return nil
	case *suite != "":
		benches, ok := workload.Suites()[*suite]
		if !ok {
			return fmt.Errorf("unknown suite %q (want cbp4 or cbp3)", *suite)
		}
		if err := predictor.Check(*config); err != nil {
			return err
		}
		if len(seedList) > 0 {
			return runSuiteSweep(stdout, engine, *config, *suite, benches, *branches, seedList)
		}
		run := runConfig(engine, *config, *suite, benches, *branches)
		for _, res := range run.Results {
			printResult(stdout, res)
		}
		printSuiteLine(stdout, run)
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -suite, -bench, -trace, or a list flag")
	}
}

// runConfig runs one registry configuration over benches on engine;
// scope is the suite name the run is keyed by (a single benchmark's
// home suite for -bench).
func runConfig(engine *sim.Engine, config, scope string, benches []workload.Benchmark, branches int) sim.SuiteRun {
	return engine.RunSuite(func() predictor.Predictor { return predictor.MustNew(config) },
		config, scope, benches, branches)
}

// runAllConfigs sweeps every registry configuration over a suite (or a
// single benchmark) and prints a ranking — the batch fan-out the
// engine's pool and cache make cheap.
func runAllConfigs(w io.Writer, engine *sim.Engine, suite, bench string, branches int) error {
	var benches []workload.Benchmark
	scope := suite
	switch {
	case bench != "":
		b, err := workload.ByName(bench)
		if err != nil {
			return err
		}
		benches = []workload.Benchmark{b}
		scope = b.Suite
	case suite != "":
		var ok bool
		benches, ok = workload.Suites()[suite]
		if !ok {
			return fmt.Errorf("unknown suite %q (want cbp4 or cbp3)", suite)
		}
	default:
		return fmt.Errorf("-all-configs needs -suite or -bench")
	}

	names := predictor.Names()
	type row struct {
		name  string
		kbits int
		run   sim.SuiteRun
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		run := runConfig(engine, name, scope, benches, branches)
		rows = append(rows, row{name: name, kbits: predictor.MustNew(name).StorageBits() / 1024, run: run})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].run.AvgMPKI() < rows[j].run.AvgMPKI() })
	fmt.Fprintf(w, "%-22s %10s %10s %s\n", "predictor", "Kbits", "avg MPKI", "cache")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %10d %10.3f %d/%d shards cached\n",
			r.name, r.kbits, r.run.AvgMPKI(),
			r.run.CachedShards, r.run.CachedShards+r.run.RanShards)
	}
	return nil
}

// runSuiteSweep fans one configuration's suite run out over stream
// seeds (work items flow through the same engine, so sharding,
// caching, and snapshots apply per seed) and prints per-trace
// mean ± 95% CI columns instead of single-seed MPKI lines.
func runSuiteSweep(w io.Writer, engine *sim.Engine, config, suite string, benches []workload.Benchmark, branches int, seeds []int64) error {
	runs := make([]sim.SuiteRun, len(seeds))
	for i, s := range seeds {
		runs[i] = runConfig(engine, config, suite, workload.Reseed(benches, s), branches)
	}
	t := &stats.Table{Header: []string{"trace", fmt.Sprintf("MPKI mean ± %.0f%% CI", stats.DefaultConfidence*100), "stddev"}}
	for bi := range benches {
		xs := make([]float64, len(runs))
		for i, run := range runs {
			xs[i] = run.Results[bi].MPKI()
		}
		sum := stats.Summarize(xs, stats.DefaultConfidence)
		t.AddRow(benches[bi].Name, sum.FormatMeanCI(), stats.F(sum.Stddev))
	}
	fmt.Fprint(w, t.String())
	avg := stats.Summarize(experiments.SweepAvgMPKI(runs), stats.DefaultConfidence)
	line := fmt.Sprintf("%-14s avg over %d traces, %d seeds: %s MPKI",
		config, len(benches), len(seeds), avg.FormatMeanCI())
	if cachedShards := sumCached(runs); cachedShards > 0 {
		line += fmt.Sprintf("  (%d/%d shards cached)", cachedShards, cachedShards+sumRan(runs))
	}
	fmt.Fprintln(w, line)
	return nil
}

// runBenchSweep sweeps a single benchmark across stream seeds on the
// engine and prints the distributional summary line.
func runBenchSweep(w io.Writer, engine *sim.Engine, config string, b workload.Benchmark, branches int, seeds []int64) error {
	xs := make([]float64, 0, len(seeds))
	for _, s := range seeds {
		run := runConfig(engine, config, b.Suite, []workload.Benchmark{b.Reseeded(s)}, branches)
		xs = append(xs, run.Results[0].MPKI())
	}
	sum := stats.Summarize(xs, stats.DefaultConfidence)
	fmt.Fprintf(w, "%-14s %-12s %d seeds: %s MPKI (stddev %.3f)\n",
		config, b.Name, len(seeds), sum.FormatMeanCI(), sum.Stddev)
	return nil
}

func sumCached(runs []sim.SuiteRun) int {
	n := 0
	for _, run := range runs {
		n += run.CachedShards
	}
	return n
}

func sumRan(runs []sim.SuiteRun) int {
	n := 0
	for _, run := range runs {
		n += run.RanShards
	}
	return n
}

func runTraceFile(w io.Writer, config, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	p, err := predictor.New(config)
	if err != nil {
		return err
	}
	res, err := sim.RunReader(p, r)
	if err != nil {
		return err
	}
	printResult(w, res)
	return nil
}

func printResult(w io.Writer, r sim.Result) {
	fmt.Fprintln(w, sim.FormatResult(r))
}

func printSuiteLine(w io.Writer, run sim.SuiteRun) {
	fmt.Fprintln(w, sim.FormatSuiteLine(run))
}
