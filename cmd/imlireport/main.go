// Command imlireport renders EXPERIMENTS.md: it runs the experiment
// suite and writes one markdown section per experiment with the
// rendered report text and the full table of key metrics
// (experiments.Report.Values). The checked-in EXPERIMENTS.md is the
// quick-budget output of this command; regenerate it after any change
// that moves the numbers:
//
//	go run ./cmd/imlireport -branches=40000 -shards=4 -cache-dir=.imli-cache
//
// Usage:
//
//	imlireport                          # EXPERIMENTS.md, quick budget
//	imlireport -out=- -exp=e1,table1    # selected experiments to stdout
//	imlireport -branches=250000         # full-size numbers
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

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
	exp := fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
	branches := fs.Int("branches", experiments.QuickParams().Budget,
		"branch records generated per trace")
	eng := cliflags.Register(fs)
	seeds := cliflags.RegisterSeeds(fs)
	quiet := fs.Bool("q", false, "suppress per-suite progress lines")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
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
	params := experiments.Params{Budget: *branches, Seeds: seedList, Engine: sim.NewEngine(eng.Config())}
	if !*quiet {
		params.Progress = stderr
	}
	runner := experiments.NewRunner(params)

	var doc strings.Builder
	renderHeader(&doc, *branches, eng.Shards, *seeds)
	for _, e := range toRun {
		renderExperiment(&doc, e, e.Run(runner))
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
