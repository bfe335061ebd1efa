// Command imliperf is the repository's end-to-end and per-layer
// benchmark. It runs four workloads — suite-imli, batch-light,
// sweep-exact and fleet-jobs — as repeated passes, each pass in a fresh
// child process (the binary re-executes itself), until the measuring
// time is spent. It prints every end-to-end metric as
// "workload metric value unit", checks the simulated counters against
// pinned digests and independent code paths, and exits non-zero on any
// mismatch or failed job. With -trace=1 it prints the per-layer metrics
// of traced passes instead and writes their spans. bench/README.md is
// the metric dictionary.
//
// Usage, from the repository root (bench/run.sh builds the binary from
// this checkout and keeps every file it writes under .bench_build/):
//
//	bash bench/run.sh                                  # all four workloads
//	bash bench/run.sh --workload sweep-exact --seed 3 --seconds 20
//	bash bench/run.sh --workload fleet-jobs --trace 1  # per-layer metrics + spans
//
// With a single -workload the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pinnedGoldens holds the result digests per scale, workload and seed.
//
//go:embed goldens.json
var pinnedGoldens []byte

// goldens maps scale → workload → seed → digest.
type goldens map[string]map[string]map[string]string

const (
	// minPasses is the fewest untraced passes a run makes, so medians
	// and the cross-pass determinism check always have data.
	minPasses = 3
	// childTimeout kills a pass that runs away.
	childTimeout = 170 * time.Second
)

func main() {
	if env := os.Getenv(childEnv); env != "" {
		os.Exit(runChild(env))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed    int64
	seconds float64
	traced  bool
	scale   string
	workdir string
	goldens goldens
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imliperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: suite-imli, batch-light, sweep-exact or fleet-jobs (default: all four)")
	seed := fs.Int64("seed", 0, "input seed: 0 uses the base streams, any other value remixes them")
	seconds := fs.Float64("seconds", 10, "measuring time per workload; passes repeat until it is spent")
	traceFlag := fs.Int("trace", 0, "1 runs traced passes and prints per-layer metrics instead of end-to-end ones")
	scaleName := fs.String("scale", "default", "input sizes: smoke, default or full")
	workdir := fs.String("workdir", ".bench_build", "directory for the passes' stores and journals and for a traced run's imliperf-spans.json")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, scale: *scaleName, workdir: *workdir}
	var selected []workloadDef
	switch {
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "imliperf: -trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	case *seconds < 0:
		fmt.Fprintf(stderr, "imliperf: -seconds must be >= 0, got %g\n", *seconds)
		return 2
	case scales[o.scale].fleetJobs == 0:
		fmt.Fprintf(stderr, "imliperf: unknown scale %q\n", o.scale)
		return 2
	case *name == "":
		selected = workloads
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "imliperf: unknown workload %q\n", *name)
			return 2
		}
		selected = []workloadDef{w}
	}
	if err := json.Unmarshal(pinnedGoldens, &o.goldens); err != nil {
		fmt.Fprintln(stderr, "imliperf: goldens:", err)
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "imliperf:", err)
		return 2
	}

	code := 0
	var spans []span
	var last outcome
	for _, w := range selected {
		last = measure(w, o, stderr)
		spans = append(spans, last.spans...)
		last.print(stdout, w.name)
		if !last.correct {
			code = 1
		}
	}
	if o.traced {
		path := filepath.Join(o.workdir, "imliperf-spans.json")
		if err := writeJSON(path, spans); err != nil {
			fmt.Fprintln(stderr, "imliperf: writing spans:", err)
			code = 1
		} else {
			fmt.Fprintf(stdout, "# %d spans written to %s\n", len(spans), path)
		}
	}
	if len(selected) == 1 {
		if err := last.printJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "imliperf:", err)
			return 1
		}
	}
	return code
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from its untraced passes.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"branches_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer a workload does not exercise reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"workload.generate_ns_per_record", "ns"},
		{"workload.stream_get_ms", "ms"},
		{"workload.streams_generated", "count"},
		{"workload.stream_hit_ratio", "ratio"},
		{"predictor.ns_per_record", "ns"},
	}
	for _, cfg := range append(append([]string{}, suiteConfigs...), sweepConfig) {
		for _, call := range callNames[callStage1 : callTrackOther+1] {
			defs = append(defs, metricDef{"predictor." + metricName(cfg) + "." + call, "ns"})
		}
		defs = append(defs, metricDef{"predictor." + metricName(cfg) + ".mispredicts", "count"})
	}
	for _, cfg := range batchConfigs {
		for _, call := range callNames[callPredict:] {
			defs = append(defs, metricDef{"predictor." + cfg + "." + call, "ns"})
		}
		defs = append(defs, metricDef{"predictor." + cfg + ".mispredicts", "count"})
	}
	return append(defs, []metricDef{
		{"sim.records_simulated", "count"},
		{"sim.items_simulated", "count"},
		{"sim.cache_hits", "count"},
		{"sim.resumed", "count"},
		{"sim.item_busy_ms_p50", "ms"},
		{"sim.item_busy_ms_max", "ms"},
		{"sim.idle_ratio", "ratio"},
		{"sim.useful_ratio", "ratio"},
		{"snap.encode_ms", "ms"},
		{"snap.decode_ms", "ms"},
		{"snap.bytes", "B"},
		{"store.save_ms_p50", "ms"},
		{"store.load_ms_p50", "ms"},
		{"store.save_snapshot_ms_p50", "ms"},
		{"store.load_snapshot_ms_p50", "ms"},
		{"store.snapshot_positions_ms_p50", "ms"},
		{"store.bytes_written", "B"},
		{"journal.append_ms_p50", "ms"},
		{"journal.append_ms_p99", "ms"},
		{"journal.appends", "count"},
		{"serve.submit_ms_p50", "ms"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.queue_wait_ms_p99", "ms"},
		{"serve.run_ms_p50", "ms"},
		{"serve.dedup_hits", "count"},
		{"dist.lease_ms_p50", "ms"},
		{"dist.lease_ms_p99", "ms"},
		{"dist.complete_ms_p50", "ms"},
		{"dist.run_item_ms_p50", "ms"},
		{"dist.empty_polls", "count"},
		{"dist.poll_sleep_s", "s"},
		{"dist.requeued", "count"},
		{"dist.expired", "count"},
		{"dist.duplicates", "count"},
		{"dist.mismatches", "count"},
		{"client.wait_ms_p50", "ms"},
		{"client.retries", "count"},
		{"share.workload", "ratio"},
		{"share.predictor", "ratio"},
		{"share.sim", "ratio"},
		{"share.snap", "ratio"},
		{"share.store", "ratio"},
		{"share.journal", "ratio"},
		{"share.wire", "ratio"},
		{"trace.overhead_ratio", "ratio"},
	}...)
}

// passResult is one child's report plus what the parent measured of it.
type passResult struct {
	rep passReport
	// slowdown is how much slower than nominal the machine ran during the
	// pass: the geometric mean of the reference kernel's durations just
	// before and just after it, over referenceNominal. setupSlowdown is
	// the kernel just before it alone.
	slowdown, setupSlowdown float64
	err                     error
}

// measure runs one workload's passes and summarizes them. Untraced runs
// make passes until the measuring time is spent (at least minPasses);
// traced runs spend half of it on untraced passes (at least one) and the
// rest on traced passes (at least one).
func measure(w workloadDef, o options, stderr io.Writer) outcome {
	start := time.Now()
	elapsed := func() float64 { return time.Since(start).Seconds() }
	var plain, traced []passResult
	untracedTime, fewest := o.seconds, minPasses
	if o.traced {
		untracedTime, fewest = o.seconds/2, 1
	}
	before, err := reference()
	if err != nil {
		return summarize(w, o, []passResult{{err: err}}, nil)
	}
	n := 0
	next := func(tr bool) passResult {
		n++
		r := runPass(w.name, o, tr, n == 1, stderr)
		after, err := reference()
		if err != nil && r.err == nil {
			r.err = err
		}
		r.setupSlowdown = float64(before) / float64(referenceNominal)
		r.slowdown = math.Sqrt(float64(before)*float64(after)) / float64(referenceNominal)
		before = after
		return r
	}
	failed := false
	for !failed && (len(plain) < fewest || elapsed() < untracedTime) {
		r := next(false)
		plain = append(plain, r)
		failed = r.err != nil
	}
	for o.traced && !failed && (len(traced) < 1 || elapsed() < o.seconds) {
		r := next(true)
		traced = append(traced, r)
		failed = r.err != nil
	}
	return summarize(w, o, plain, traced)
}

// runPass runs one pass in a child process.
func runPass(name string, o options, traced, check bool, stderr io.Writer) passResult {
	dir, err := os.MkdirTemp(o.workdir, "pass-")
	if err != nil {
		return passResult{err: err}
	}
	defer func() {
		// Delete the pass's store and flush the file system now, so the
		// deletion's disk work does not land in the next pass.
		os.RemoveAll(dir)
		syscall.Sync()
	}()
	exe, err := os.Executable()
	if err != nil {
		return passResult{err: err}
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	spec := passSpec{Workload: name, Seed: o.seed, Scale: o.scale, Traced: traced, Check: check, Dir: dir,
		StartNS: time.Now().UnixNano()}
	env, err := json.Marshal(spec)
	if err != nil {
		return passResult{err: err}
	}
	cmd.Env = append(os.Environ(), childEnv+"="+string(env))
	if err := cmd.Run(); err != nil {
		return passResult{err: fmt.Errorf("pass: %w", err)}
	}
	var r passResult
	if err := json.Unmarshal(out.Bytes(), &r.rep); err != nil {
		return passResult{err: fmt.Errorf("pass report: %w", err)}
	}
	return r
}

// outcome is a workload run's summary.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metricDef
	values    map[string]float64
	notes     []string
	problems  []string
	spans     []span
}

func summarize(w workloadDef, o options, plain, traced []passResult) outcome {
	out := outcome{values: map[string]float64{}}
	all := append(append([]passResult{}, plain...), traced...)
	seen := map[string]bool{}
	problem := func(s string) {
		if !seen[s] {
			seen[s] = true
			out.problems = append(out.problems, s)
		}
	}
	var ok []passResult
	for _, r := range all {
		if r.err != nil {
			out.attempted++
			out.failed++
			problem(r.err.Error())
			continue
		}
		out.attempted += len(r.rep.JobMS)
		out.failed += r.rep.Failed
		for _, p := range r.rep.Problems {
			problem(p)
		}
		ok = append(ok, r)
	}
	if len(ok) > 0 {
		// Simulation is deterministic: every pass — traced or not — must
		// produce the same counters, and seeds with a pinned golden must
		// reproduce it.
		first := ok[0].rep
		for _, r := range ok[1:] {
			if r.rep.Digest != first.Digest {
				problem(fmt.Sprintf("result digest %s differs from the first pass's %s", r.rep.Digest, first.Digest))
			}
			if r.rep.Sim != first.Sim {
				problem(fmt.Sprintf("engine counters %+v differ from the first pass's %+v", r.rep.Sim, first.Sim))
			}
		}
		golden := o.goldens[o.scale][w.name][strconv.FormatInt(o.seed, 10)]
		status := "no golden for this seed"
		switch {
		case golden == first.Digest:
			status = "matches golden"
		case golden != "":
			status = "MISMATCH, golden " + golden
			problem(fmt.Sprintf("result digest %s, golden %s (scale %s, seed %d)", first.Digest, golden, o.scale, o.seed))
		}
		out.notes = append(out.notes, fmt.Sprintf("digest %s (%s)", first.Digest, status))
	}
	plainOK, tracedOK := okOnly(plain), okOnly(traced)
	switch {
	case !o.traced:
		out.metrics = endToEnd
		if len(plainOK) > 0 {
			out.endToEnd(plainOK, w.service)
		}
	default:
		out.metrics = perLayer()
		out.perLayer(plainOK, tracedOK)
		for _, r := range tracedOK {
			out.spans = append(out.spans, r.rep.Spans...)
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("%d untraced + %d traced passes, %d jobs attempted, %d failed",
		len(plain), len(traced), out.attempted, out.failed))
	for _, m := range out.metrics {
		if v := out.values[m.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			problem(m.name + " is not a finite number")
			out.values[m.name] = 0
		}
	}
	out.correct = len(out.problems) == 0 && out.failed == 0 && len(ok) > 0
	return out
}

func okOnly(rs []passResult) []passResult {
	var out []passResult
	for _, r := range rs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics: medians over passes of
// times divided by the pass's slowdown (see reference.go); set-up time
// is divided by the kernel run just before it. Local workloads run the
// same jobs one at a time in every pass, so a job's latency is its
// median over passes and the percentiles range over the distinct jobs.
// A service's jobs queue behind each other, so its percentiles pool
// every job of every pass; its tail is the workers' fixed idle poll,
// which machine load stretches far less than it stretches computation,
// so job_p99_ms stays unscaled there.
func (out *outcome) endToEnd(passes []passResult, service bool) {
	var setup, wall, bps, jps, rss, raw, slowdowns, jobs, tail []float64
	for _, r := range passes {
		s := r.slowdown
		setup = append(setup, r.rep.SetupS/r.setupSlowdown)
		wall = append(wall, r.rep.WallS/s)
		bps = append(bps, float64(r.rep.Records)/(r.rep.WallS/s))
		jps = append(jps, float64(len(r.rep.JobMS))/(r.rep.JobsS/s))
		rss = append(rss, r.rep.PeakRSSMiB)
		raw = append(raw, r.rep.WallS)
		slowdowns = append(slowdowns, s)
	}
	if service {
		for _, r := range passes {
			for _, j := range r.rep.JobMS {
				jobs = append(jobs, j/r.slowdown)
				tail = append(tail, j)
			}
		}
		out.notes = append(out.notes, fmt.Sprintf("unscaled job_p50_ms %.4f", percentile(tail, 50)))
	} else {
		for j := range passes[0].rep.JobMS {
			var runs []float64
			for _, r := range passes {
				runs = append(runs, r.rep.JobMS[j]/r.slowdown)
			}
			jobs = append(jobs, median(runs))
		}
		tail = jobs
	}
	v := out.values
	v["setup_s"] = median(setup)
	v["wall_s"] = median(wall)
	v["branches_per_s"] = median(bps)
	v["jobs_per_s"] = median(jps)
	v["job_p50_ms"] = percentile(jobs, 50)
	v["job_p99_ms"] = percentile(tail, 99)
	v["peak_rss_mib"] = median(rss)
	out.notes = append(out.notes,
		"unscaled wall_s per pass: "+formatAll(raw, 4),
		"machine slowdown per pass (reference kernel / nominal): "+formatAll(slowdowns, 4),
		fmt.Sprintf("job latency percentiles over n=%d jobs", len(jobs)))
}

func formatAll(xs []float64, prec int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(s, " ")
}

// perLayer computes the per-layer metrics: medians over traced passes,
// plus the tracing overhead against the untraced passes.
func (out *outcome) perLayer(plain, traced []passResult) {
	for _, m := range out.metrics {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.rep.Layers[m.name])
		}
		out.values[m.name] = median(xs)
	}
	var pw, tw []float64
	for _, r := range plain {
		pw = append(pw, r.rep.WallS/r.slowdown)
	}
	for _, r := range traced {
		tw = append(tw, r.rep.WallS/r.slowdown)
	}
	if len(pw) > 0 && len(tw) > 0 {
		out.values["trace.overhead_ratio"] = median(tw)/median(pw) - 1
	}
}

// print writes the human-readable report: one "workload metric value
// unit" line per metric, then notes and problems as comments.
func (out *outcome) print(w io.Writer, name string) {
	for _, m := range out.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", name, m.name, strconv.FormatFloat(out.values[m.name], 'g', -1, 64), m.unit)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s: %s\n", name, n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "# %s: FAIL: %s\n", name, p)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON writes the machine-readable result as one line.
func (out *outcome) printJSON(w io.Writer) error {
	ms := map[string]jsonMetric{}
	for _, m := range out.metrics {
		ms[m.name] = jsonMetric{out.values[m.name], m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.correct, max(out.attempted, 1), out.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
