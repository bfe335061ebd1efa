// Command imligen materialises the synthetic benchmark suites as
// on-disk trace files in the repository's compact binary format, for
// use with imlisim -trace or external tooling.
//
// Usage:
//
//	imligen -out=traces -branches=250000          # both suites
//	imligen -out=traces -suite=cbp4 -bench=MM-4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/cliflags"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "imligen:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("imligen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "traces", "output directory")
	suite := fs.String("suite", "", "restrict to one suite: cbp4 or cbp3")
	bench := fs.String("bench", "", "restrict to one benchmark name")
	branches := fs.Int("branches", 250000, "branch records per trace")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if err := cliflags.Positive("branches", *branches); err != nil {
		return err
	}

	var benches []workload.Benchmark
	switch {
	case *bench != "":
		b, err := workload.ByName(*bench)
		if err != nil {
			return err
		}
		// -suite may accompany -bench (the documented usage), but only
		// when they agree; silently ignoring -suite would write a trace
		// from a different suite than asked.
		if *suite != "" && b.Suite != *suite {
			return fmt.Errorf("conflicting flags: benchmark %q is in suite %q, not %q", b.Name, b.Suite, *suite)
		}
		benches = []workload.Benchmark{b}
	case *suite != "":
		var ok bool
		benches, ok = workload.Suites()[*suite]
		if !ok {
			return fmt.Errorf("unknown suite %q", *suite)
		}
	default:
		benches = workload.All()
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, b := range benches {
		path := filepath.Join(*out, b.Name+".imlt")
		if err := writeTrace(path, b, *branches); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d branches)\n", path, *branches)
	}
	return nil
}

func writeTrace(path string, b workload.Benchmark, branches int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f, b.Name)
	if err != nil {
		f.Close()
		return err
	}
	var writeErr error
	b.Generate(branches, func(r trace.Record) {
		if writeErr == nil {
			writeErr = w.Write(r)
		}
	})
	if writeErr != nil {
		f.Close()
		return writeErr
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
