package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunRendersMarkdown(t *testing.T) {
	out := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	var stdout strings.Builder
	err := run([]string{"-out=" + out, "-exp=storage", "-branches=1000", "-q"}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"# EXPERIMENTS",
		"## storage —",
		"```text",
		"| metric | value |",
		"`imli.bytes`",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q", want)
		}
	}
	if !strings.Contains(stdout.String(), "wrote") {
		t.Errorf("no confirmation: %q", stdout.String())
	}
}

func TestRunStdout(t *testing.T) {
	var stdout strings.Builder
	err := run([]string{"-out=-", "-exp=storage", "-branches=1000", "-q"}, &stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "## storage —") {
		t.Error("stdout mode did not render the document")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp=nope"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunList(t *testing.T) {
	var stderr strings.Builder
	if err := run([]string{"-h"}, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{} // first word of a line -> the line
	for _, line := range strings.Split(stderr.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 {
			listed[f[0]] = line
		}
	}
	for _, id := range experiments.IDs() {
		e, err := experiments.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if line, ok := listed[id]; !ok || !strings.Contains(line, e.Title) {
			t.Errorf("-h output does not list %q with its title", id)
		}
	}
	if !strings.Contains(stderr.String(), "-branches") {
		t.Error("-h output lost the flag defaults")
	}
}

func TestRunRepeatServedFromCache(t *testing.T) {
	// A repeat run over the same result store renders the same
	// document; only stderr tells that the store served it.
	args := []string{"-out=-", "-exp=e1", "-branches=1000", "-cache-dir=" + filepath.Join(t.TempDir(), "cache")}
	var doc1, doc2, log2 strings.Builder
	if err := run(args, &doc1, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &doc2, &log2); err != nil {
		t.Fatal(err)
	}
	if doc1.String() != doc2.String() {
		t.Error("cached re-run rendered a different document")
	}
	for _, want := range []string{"e1 done in", "served from cache"} {
		if !strings.Contains(log2.String(), want) {
			t.Errorf("stderr of the cached re-run lacks %q:\n%s", want, log2.String())
		}
	}
	if strings.Contains(doc2.String(), "served from cache") || strings.Contains(doc2.String(), "done in") {
		t.Error("stderr lines leaked into the document")
	}
	var quiet strings.Builder
	if err := run(append(args, "-q"), io.Discard, &quiet); err != nil {
		t.Fatal(err)
	}
	if quiet.Len() != 0 {
		t.Errorf("-q run wrote to stderr:\n%s", quiet.String())
	}
}

func TestRunRejectsNonPositiveBranches(t *testing.T) {
	for _, b := range []string{"-branches=0", "-branches=-1"} {
		var stdout strings.Builder
		err := run([]string{"-out=-", "-exp=storage", b}, &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-branches") {
			t.Errorf("%s: err = %v, want an error naming -branches", b, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s rendered a document:\n%s", b, stdout.String())
		}
	}
}

// TestRunRejectsBadEngineFlags: -shards below 1 and a negative
// -parallel are errors naming the flag, not a rendered document.
func TestRunRejectsBadEngineFlags(t *testing.T) {
	for _, tc := range []struct{ flag, want string }{
		{"-shards=0", "-shards"}, {"-shards=-3", "-shards"}, {"-parallel=-3", "-parallel"},
	} {
		var stdout strings.Builder
		err := run([]string{"-out=-", "-exp=storage", "-branches=1000", tc.flag}, &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want an error naming %s", tc.flag, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s rendered a document:\n%s", tc.flag, stdout.String())
		}
	}
}

func TestRunSeedsExperiment(t *testing.T) {
	var stdout strings.Builder
	err := run([]string{"-out=-", "-exp=seeds", "-branches=1500", "-seeds=2", "-q"},
		&stdout, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	doc := stdout.String()
	if !strings.Contains(doc, "-seeds=2") {
		t.Error("header does not record the seed count")
	}
	for _, want := range []string{"## seeds —", "±", "`paired.tage-gsc+imli.cbp4.mean`"} {
		if !strings.Contains(doc, want) {
			t.Errorf("seeds section missing %q", want)
		}
	}
}

func TestRunRejectsBadSeeds(t *testing.T) {
	if err := run([]string{"-out=-", "-exp=storage", "-seeds=0"}, io.Discard, io.Discard); err == nil {
		t.Error("-seeds=0 accepted")
	}
}
