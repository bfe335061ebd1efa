// Command imlireport runs the paper's evaluation — every table and
// figure, each with the paper's own numbers quoted inline — and
// renders it as markdown: one section per experiment with the report
// text and the full table of key metrics (experiments.Report.Values).
// Simulation goes through the parallel engine; with -cache-dir,
// re-running after an interruption (or with overlapping experiment
// selections) only simulates what is missing.
//
// The checked-in EXPERIMENTS.md is the quick-budget output of this
// command; regenerate it after any change that moves the numbers:
//
//	go run ./cmd/imlireport -branches=40000 -shards=4 -cache-dir=.imli-cache
//
// Unless -q is set, stderr carries per-suite progress lines, each
// experiment's elapsed time and, when the result store served or
// resumed work, an engine summary line. None of it enters the
// document. -h lists the flags and every experiment ID.
//
// Usage:
//
//	imlireport                              # EXPERIMENTS.md, quick budget
//	imlireport -out=- -exp=e1,table1        # selected experiments to stdout
//	imlireport -out=- -branches=250000      # full-size numbers
//	imlireport -out=- -exp=seeds -seeds=5   # 5-seed sweep: mean ± CI, paired tests
//	imlireport -h                           # flags and experiment IDs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "imlireport:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("imlireport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "EXPERIMENTS.md", "output file ('-' = stdout)")
	exp := fs.String("exp", "all", "comma-separated experiment IDs (listed below), or 'all'")
	branches := fs.Int("branches", experiments.QuickParams().Budget,
		"branch records generated per trace")
	eng := cliflags.Register(fs)
	seeds := cliflags.RegisterSeeds(fs)
	quiet := fs.Bool("q", false, "suppress progress, timing and engine lines on stderr")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintln(w, "Usage of imlireport:")
		fs.PrintDefaults()
		fmt.Fprintln(w, "\nExperiments:")
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "  %-10s %s\n", e.ID, e.Title)
		}
	}
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if err := cliflags.Positive("branches", *branches); err != nil {
		return err
	}
	engCfg, err := eng.Config()
	if err != nil {
		return err
	}
	seedList, err := cliflags.SeedList(*seeds)
	if err != nil {
		return err
	}
	toRun, err := experiments.Select(*exp)
	if err != nil {
		return err
	}
	params := experiments.Params{Budget: *branches, Seeds: seedList, Engine: sim.NewEngine(engCfg)}
	if !*quiet {
		params.Progress = stderr
	}
	runner := experiments.NewRunner(params)

	var doc strings.Builder
	renderHeader(&doc, *branches, eng.Shards, *seeds)
	for _, e := range toRun {
		start := time.Now() //lint:allow determinism elapsed time goes to stderr only, never into the document
		rep := e.Run(runner)
		if !*quiet {
			//lint:allow determinism elapsed time goes to stderr only, never into the document
			fmt.Fprintf(stderr, "%s done in %.1fs\n", e.ID, time.Since(start).Seconds())
		}
		renderExperiment(&doc, e, rep)
	}
	if st := runner.EngineStats(); !*quiet && (st.CacheHits > 0 || st.Resumed > 0) {
		fmt.Fprintf(stderr, "engine: %d shards simulated, %d served from cache, %d resumed from snapshots\n",
			st.Simulated, st.CacheHits, st.Resumed)
	}

	if *out == "-" {
		_, err := io.WriteString(stdout, doc.String())
		return err
	}
	if err := os.WriteFile(*out, []byte(doc.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d experiments, budget %d)\n", *out, len(toRun), *branches)
	return nil
}

func renderHeader(w *strings.Builder, budget, shards, seeds int) {
	fmt.Fprintf(w, "# EXPERIMENTS\n\n")
	fmt.Fprintf(w, "Reproduction of every table and figure of *The Inner Most Loop Iteration\n")
	fmt.Fprintf(w, "counter: a new dimension in branch history* (Seznec, San Miguel, Albericio —\n")
	fmt.Fprintf(w, "MICRO 2015). Each section quotes the paper's own numbers inline, then the\n")
	fmt.Fprintf(w, "numbers this simulator reproduces on its synthetic CBP-like suites.\n\n")
	fmt.Fprintf(w, "Generated by `go run ./cmd/imlireport -branches=%d", budget)
	if shards > 1 {
		fmt.Fprintf(w, " -shards=%d", shards)
	}
	if seeds > 1 {
		fmt.Fprintf(w, " -seeds=%d", seeds)
	}
	fmt.Fprintf(w, "` — do not edit by hand.\n")
	fmt.Fprintf(w, "Budget is %d branch records per trace; the full-size evaluation uses %d\n",
		budget, experiments.DefaultParams().Budget)
	fmt.Fprintf(w, "(`-branches=%d`), where absolute MPKI is less noisy. See DESIGN.md §4 for\n",
		experiments.DefaultParams().Budget)
	fmt.Fprintf(w, "the experiment index and §5 for the engine that runs them.\n")
}

func renderExperiment(w *strings.Builder, e experiments.Experiment, rep experiments.Report) {
	fmt.Fprintf(w, "\n## %s — %s\n\n", rep.ID, e.Title)
	fmt.Fprintf(w, "```text\n%s\n```\n", strings.TrimRight(rep.Text, "\n"))
	if len(rep.Values) == 0 {
		return
	}
	keys := make([]string, 0, len(rep.Values))
	for k := range rep.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "\n<details><summary>%d key metrics</summary>\n\n", len(keys))
	fmt.Fprintf(w, "| metric | value |\n|---|---|\n")
	for _, k := range keys {
		fmt.Fprintf(w, "| `%s` | %.4f |\n", k, rep.Values[k])
	}
	fmt.Fprintf(w, "\n</details>\n")
}
