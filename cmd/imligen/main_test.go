package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestRunWritesParseableTrace(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"-out=" + dir, "-bench=MM-4", "-branches=500"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Errorf("no confirmation line: %q", out.String())
	}
	f, err := os.Open(filepath.Join(dir, "MM-4.imlt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "MM-4" {
		t.Errorf("trace name = %q", r.Name())
	}
	n := 0
	for {
		if _, err := r.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n < 500 {
		t.Errorf("trace has %d records, want >= 500", n)
	}
}

func TestRunUnknownInputs(t *testing.T) {
	if err := run([]string{"-bench=NOPE"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run([]string{"-suite=nope"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown suite accepted")
	}
}

func TestRunSuiteBenchConflict(t *testing.T) {
	dir := t.TempDir()
	// MM-4 is a cbp4 benchmark: naming the wrong suite used to be
	// silently ignored and must now error.
	err := run([]string{"-out=" + dir, "-suite=cbp3", "-bench=MM-4"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("-suite=cbp3 with cbp4 benchmark accepted")
	}
	if !strings.Contains(err.Error(), "conflicting") {
		t.Errorf("unhelpful conflict error: %v", err)
	}
	// The documented agreeing combination keeps working.
	if err := run([]string{"-out=" + dir, "-suite=cbp4", "-bench=MM-4", "-branches=200"},
		io.Discard, io.Discard); err != nil {
		t.Errorf("agreeing -suite and -bench rejected: %v", err)
	}
}

func TestRunRejectsNonPositiveBranches(t *testing.T) {
	for _, b := range []string{"-branches=0", "-branches=-1"} {
		dir := filepath.Join(t.TempDir(), "traces")
		err := run([]string{"-out=" + dir, "-bench=MM-4", b}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-branches") {
			t.Errorf("%s: err = %v, want an error naming -branches", b, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "MM-4.imlt")); err == nil {
			t.Errorf("%s wrote a trace", b)
		}
	}
}
