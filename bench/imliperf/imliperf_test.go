package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if env := os.Getenv(childEnv); env != "" {
		os.Exit(runChild(env))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	sort.Strings(out)
	return out
}

func byName(x struct{ Name string }) string { return x.Name }
func defName(d metricDef) string            { return d.name }

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// smoke runs the benchmark at smoke scale and returns its exit code,
// its parsed last line and its whole standard output.
func smoke(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-scale=smoke", "-seconds=0", "-workdir=" + t.TempDir()}, args...)
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	return code, r, stdout.String()
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestDefinitionsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if got, want := names(workloads, func(w workloadDef) string { return w.name }), names(bf.Workloads, byName); !reflect.DeepEqual(got, want) {
		t.Errorf("workloads %v, BENCHMARK.json %v", got, want)
	}
	if got, want := names(endToEnd, defName), names(bf.EndToEnd, byName); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json %v", got, want)
	}
	if got, want := names(perLayer(), defName), names(bf.PerLayer, byName); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v\nBENCHMARK.json %v", got, want)
	}
}

// TestSmoke runs every workload untraced and traced at smoke scale: the
// runs must pass their golden and cross-checks and emit exactly the
// metric names BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			mode, flagValue, want := "untraced", "-trace=0", names(bf.EndToEnd, byName)
			if traced {
				mode, flagValue, want = "traced", "-trace=1", names(bf.PerLayer, byName)
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				code, r, out := smoke(t, "-workload="+w.name, flagValue)
				if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, failed %d, attempted %d\n%s", code, r.Correct, r.Failed, r.Attempted, out)
				}
				if !strings.Contains(out, "matches golden") {
					t.Errorf("seed 0 did not check a pinned golden:\n%s", out)
				}
				got := make([]string, 0, len(r.Metrics))
				for name, m := range r.Metrics {
					got = append(got, name)
					if !metricNameRE.MatchString(name) {
						t.Errorf("metric name %q", name)
					}
					if m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v %q", name, m.Value, m.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				sort.Strings(got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("emitted %v\nBENCHMARK.json %v", got, want)
				}
			})
		}
	}
}

// TestTamperedGoldenFails checks the correctness gate: a golden that
// does not match the simulated counters fails the run.
func TestTamperedGoldenFails(t *testing.T) {
	var g goldens
	if err := json.Unmarshal(pinnedGoldens, &g); err != nil {
		t.Fatal(err)
	}
	digest := g["smoke"]["suite-imli"]["1"]
	if digest == "" {
		t.Fatal("no pinned smoke golden for suite-imli seed 1")
	}
	if code, r, _ := smoke(t, "-workload=suite-imli", "-seed=1"); code != 0 || !r.Correct {
		t.Fatalf("untampered run failed: exit %d", code)
	}
	g["smoke"]["suite-imli"]["1"] = strings.Repeat("0", len(digest))
	tampered, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	pinned := pinnedGoldens
	pinnedGoldens = tampered
	t.Cleanup(func() { pinnedGoldens = pinned })
	code, r, out := smoke(t, "-workload=suite-imli", "-seed=1")
	if code == 0 || r.Correct {
		t.Fatalf("tampered golden passed: exit %d, correct %v\n%s", code, r.Correct, out)
	}
}
