package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunBenchAnalysis(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-bench=SPEC2K6-12", "-branches=2000"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace SPEC2K6-12", "conditionals", "IMLI profile", "hottest"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("analysis missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil, io.Discard, io.Discard); err == nil {
		t.Error("no-op invocation accepted")
	}
}

func TestRunConflictingSources(t *testing.T) {
	// -bench used to silently win over -trace; both must now be an
	// explicit error.
	err := run([]string{"-bench=SPEC2K6-12", "-trace=whatever.imlt"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("conflicting -bench and -trace accepted")
	}
	if !strings.Contains(err.Error(), "conflicting") {
		t.Errorf("unhelpful conflict error: %v", err)
	}
}

func TestRunRejectsNonPositiveBranches(t *testing.T) {
	for _, b := range []string{"-branches=0", "-branches=-1"} {
		var out strings.Builder
		err := run([]string{"-bench=SPEC2K6-12", b}, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-branches") {
			t.Errorf("%s: err = %v, want an error naming -branches", b, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s printed an analysis:\n%s", b, out.String())
		}
	}
}

func TestRunRejectsNegativeHot(t *testing.T) {
	// -hot=-1 used to print the header, then panic slicing the site list.
	var out strings.Builder
	err := run([]string{"-bench=MM-4", "-branches=1000", "-hot=-1"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-hot") {
		t.Errorf("err = %v, want an error naming -hot", err)
	}
	if out.Len() != 0 {
		t.Errorf("-hot=-1 printed an analysis:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-bench=MM-4", "-branches=1000", "-hot=0"}, &out, io.Discard); err != nil {
		t.Fatalf("-hot=0: %v", err)
	}
	if !strings.Contains(out.String(), "hottest 0 sites") {
		t.Errorf("-hot=0 output:\n%s", out.String())
	}
}
