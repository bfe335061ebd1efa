package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

func TestRunBench(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-predictor=gshare", "-bench=MM-4", "-branches=2000"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MPKI") || !strings.Contains(out.String(), "MM-4") {
		t.Errorf("unparseable output: %q", out.String())
	}
}

func TestRunSuiteWithEngineFlags(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-predictor=bimodal", "-suite=cbp4", "-branches=1000",
		"-parallel=4", "-shards=2", "-cache-dir=" + filepath.Join(dir, "cache")}
	var out1 strings.Builder
	if err := run(args, &out1, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out1.String(), "avg over 40 traces") {
		t.Errorf("missing suite average: %q", out1.String())
	}
	// Second run must report a fully cached suite.
	var out2 strings.Builder
	if err := run(args, &out2, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2.String(), "80/80 shards cached") {
		t.Errorf("second run not served from cache: %q", out2.String())
	}
}

func TestRunAllConfigsBench(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-all-configs", "-bench=MM-4", "-branches=500"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"predictor", "avg MPKI", "tage-gsc+imli", "bimodal"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("batch output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunListPredictors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-predictors"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "tage-gsc+imli") {
		t.Errorf("predictor list missing configurations: %q", out.String())
	}
}

func TestRunSnapshotsAndExactShards(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	// A short run with snapshots, then a longer one that resumes: the
	// longer run's output must match a cold run of the same budget.
	if err := run([]string{"-predictor=gshare", "-suite=cbp4", "-branches=1000",
		"-exact-shards", "-cache-dir=" + dir}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	var resumed, cold strings.Builder
	if err := run([]string{"-predictor=gshare", "-suite=cbp4", "-branches=2000",
		"-exact-shards", "-cache-dir=" + dir}, &resumed, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-predictor=gshare", "-suite=cbp4", "-branches=2000"},
		&cold, io.Discard); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != cold.String() {
		t.Error("snapshot-resumed run reported different results than a cold run")
	}

	// Exact sharding must reproduce the unsharded per-trace lines.
	var exact, unsharded strings.Builder
	if err := run([]string{"-predictor=gshare", "-suite=cbp4", "-branches=2000",
		"-shards=4", "-exact-shards"}, &exact, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-predictor=gshare", "-suite=cbp4", "-branches=2000"},
		&unsharded, io.Discard); err != nil {
		t.Fatal(err)
	}
	if exact.String() != unsharded.String() {
		t.Error("-exact-shards output differs from the unsharded run")
	}
}

func TestRunCachePrune(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if err := run([]string{"-predictor=bimodal", "-suite=cbp4", "-branches=500",
		"-cache-dir=" + dir}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-cache-prune", "-cache-dir=" + dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pruned 0 stale cache entries") {
		t.Errorf("prune of a current-version cache: %q", out.String())
	}
	// Prune without a cache directory is an error.
	if err := run([]string{"-cache-prune"}, io.Discard, io.Discard); err == nil {
		t.Error("-cache-prune without -cache-dir accepted")
	}
}

func TestRunSuiteSeedSweep(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-predictor=gshare", "-suite=cbp4", "-branches=1000", "-seeds=3"},
		&out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "±") {
		t.Errorf("sweep output has no ± columns: %q", out.String())
	}
	if !strings.Contains(out.String(), "3 seeds:") {
		t.Errorf("sweep output missing the seed count: %q", out.String())
	}

	// The sweep must be deterministic run to run.
	var again strings.Builder
	if err := run([]string{"-predictor=gshare", "-suite=cbp4", "-branches=1000", "-seeds=3"},
		&again, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out.String() != again.String() {
		t.Error("seed sweep output differs between identical runs")
	}

	// -seeds=1 is the plain single-seed path, unchanged output format.
	var single, plain strings.Builder
	if err := run([]string{"-predictor=gshare", "-suite=cbp4", "-branches=1000", "-seeds=1"},
		&single, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-predictor=gshare", "-suite=cbp4", "-branches=1000"},
		&plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	if single.String() != plain.String() {
		t.Error("-seeds=1 changed the single-seed output")
	}
}

func TestRunBenchSeedSweep(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-predictor=gshare", "-bench=MM-4", "-branches=1000", "-seeds=2"},
		&out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 seeds:") || !strings.Contains(out.String(), "±") {
		t.Errorf("bench sweep output: %q", out.String())
	}
}

func TestRunSeedsFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds=0", "-suite=cbp4"},   // below the minimum of 1
		{"-seeds=2", "-trace=x.imlt"}, // sweeps need synthetic streams
		{"-seeds=2", "-suite=cbp4", "-all-configs"},
		{"-seeds=2", "-bench=MM-4", "-targets"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                                 // nothing to do
		{"-suite=nope"},                    // unknown suite
		{"-bench=NOPE"},                    // unknown benchmark
		{"-predictor=nope", "-suite=cbp4"}, // unknown predictor
		{"-all-configs"},                   // batch without scope
		{"-suite=cbp4", "-bench=MM-4"},     // conflicting sources
		{"-bench=MM-4", "-trace=x.imlt"},   // conflicting sources
		{"-suite=cbp4", "-trace=x.imlt"},   // conflicting sources
		{"-all-configs", "-suite=cbp4", "-bench=MM-4"}, // batch with two scopes
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunConflictingSourcesMessage(t *testing.T) {
	err := run([]string{"-bench=MM-4", "-trace=x.imlt"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Errorf("unhelpful conflict error: %v", err)
	}
}

func TestRunSuiteStreamMemFlag(t *testing.T) {
	// Both the disabled and bounded stream-cache paths must work end
	// to end and agree on the result.
	var out1, out2 strings.Builder
	if err := run([]string{"-predictor=bimodal", "-suite=cbp4", "-branches=500",
		"-shards=2", "-stream-mem=-1"}, &out1, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-predictor=bimodal", "-suite=cbp4", "-branches=500",
		"-shards=2", "-stream-mem=64"}, &out2, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Error("stream materialization changed reported results")
	}
}

func TestRunBenchUsesEngineFlags(t *testing.T) {
	// A single -bench runs on the engine the flags describe: sharded, it
	// prints exactly its line of the sharded suite run, and with
	// -cache-dir it stores its results.
	var bench, suite strings.Builder
	if err := run([]string{"-predictor=gshare", "-bench=MM-4", "-branches=2000", "-shards=2"},
		&bench, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-predictor=gshare", "-suite=cbp4", "-branches=2000", "-shards=2"},
		&suite, io.Discard); err != nil {
		t.Fatal(err)
	}
	var want string
	for _, line := range strings.SplitAfter(suite.String(), "\n") {
		if strings.Contains(line, "MM-4 ") {
			want = line
		}
	}
	if want == "" || bench.String() != want {
		t.Errorf("-bench=MM-4 -shards=2 printed %q, want the suite run's line %q", bench.String(), want)
	}

	dir := filepath.Join(t.TempDir(), "cache")
	if err := run([]string{"-predictor=gshare", "-bench=MM-4", "-branches=2000", "-cache-dir=" + dir},
		io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	results, err := filepath.Glob(filepath.Join(dir, "v*", "*", "*.json"))
	if err != nil || len(results) == 0 {
		t.Errorf("-bench -cache-dir stored no results under %s (%v)", dir, err)
	}
}

func TestRunRejectsNonPositiveBranches(t *testing.T) {
	for _, b := range []string{"-branches=0", "-branches=-5"} {
		var out strings.Builder
		err := run([]string{"-predictor=gshare", "-bench=MM-4", b}, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-branches") {
			t.Errorf("%s: err = %v, want an error naming -branches", b, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s printed %q", b, out.String())
		}
	}
}

// TestRunRejectsBadEngineFlags: -shards below 1 and a negative
// -parallel are errors naming the flag. The engine used to replace them
// with 1 shard and GOMAXPROCS workers, print an MPKI line and exit 0.
func TestRunRejectsBadEngineFlags(t *testing.T) {
	for _, tc := range []struct{ flag, want string }{
		{"-shards=-3", "-shards"}, {"-shards=0", "-shards"}, {"-parallel=-3", "-parallel"},
	} {
		var out strings.Builder
		err := run([]string{"-predictor=gshare", "-bench=MM-4", "-branches=1000", tc.flag}, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want an error naming %s", tc.flag, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s printed %q", tc.flag, out.String())
		}
	}
}

func TestRunTargetsNeedsBench(t *testing.T) {
	// -targets reports on one synthetic benchmark; every other mode used
	// to drop it silently and exit 0.
	for _, args := range [][]string{
		{"-predictor=bimodal", "-suite=cbp4", "-branches=500", "-targets"},
		{"-predictor=bimodal", "-trace=x.imlt", "-targets"},
		{"-all-configs", "-bench=MM-4", "-branches=500", "-targets"},
	} {
		var out strings.Builder
		err := run(args, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-targets") {
			t.Errorf("args %v: err = %v, want an error naming -targets", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("args %v printed %q", args, out.String())
		}
	}
	var out strings.Builder
	if err := run([]string{"-predictor=bimodal", "-bench=MM-4", "-branches=500", "-targets"},
		&out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "targets:") {
		t.Errorf("-bench -targets printed no target report: %q", out.String())
	}
}

// writeTrace writes the first records of a synthetic benchmark as a
// trace file and returns its path.
func writeTrace(t *testing.T, bench string, records int) string {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), bench+".imlt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, b.Name)
	if err != nil {
		t.Fatal(err)
	}
	b.Generate(records, func(r trace.Record) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTraceRejectsEngineFlags(t *testing.T) {
	// A trace file runs whole and unsharded outside the engine; these
	// flags used to be dropped without a word and the run exited 0.
	path := writeTrace(t, "MM-4", 2000)
	cache := filepath.Join(t.TempDir(), "cache")
	for _, flagArg := range []string{"-branches=7", "-shards=4", "-exact-shards", "-parallel=2", "-stream-mem=8", "-cache-dir=" + cache} {
		var out strings.Builder
		err := run([]string{"-predictor=gshare", "-trace=" + path, flagArg}, &out, io.Discard)
		name := strings.SplitN(flagArg, "=", 2)[0]
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v, want an error naming %s", flagArg, err, name)
		}
		if out.Len() != 0 {
			t.Errorf("%s printed %q", flagArg, out.String())
		}
	}
	if _, err := os.Stat(cache); !os.IsNotExist(err) {
		t.Errorf("a rejected -trace run created its -cache-dir: %v", err)
	}

	// The plain trace run, and -cache-dir alongside -cache-prune, still
	// work.
	for _, args := range [][]string{
		{"-predictor=gshare", "-trace=" + path},
		{"-predictor=gshare", "-trace=" + path, "-cache-prune", "-cache-dir=" + cache},
	} {
		var out strings.Builder
		if err := run(args, &out, io.Discard); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
		if !strings.Contains(out.String(), "MM-4") {
			t.Errorf("args %v printed no result line: %q", args, out.String())
		}
	}
}
