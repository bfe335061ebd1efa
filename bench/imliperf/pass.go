package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/internal/sim"
)

// childEnv carries a passSpec to a child process: the benchmark
// re-executes itself once per pass, so every pass starts cold (fresh
// process, fresh engine, fresh caches) and reports its own set-up time
// and peak memory.
const childEnv = "IMLIPERF_PASS"

// passSpec tells a child which pass to run.
type passSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Scale    string `json:"scale"`
	Traced   bool   `json:"traced"`
	// Check runs the cross-checks against independent code paths
	// (first pass of a run only: they cost time and repeat exactly).
	Check bool `json:"check"`
	// Dir is the pass's private scratch directory; the parent removes it.
	Dir string `json:"dir"`
	// StartNS is the parent's wall clock just before it started the
	// child, so set-up time includes process start.
	StartNS int64 `json:"start_ns"`
}

// simCounters are the engine's work counters, summed over every engine
// of a pass. They are deterministic: traced and untraced passes of one
// run must report identical values.
type simCounters struct {
	RecordsSimulated uint64 `json:"records_simulated"`
	ItemsSimulated   uint64 `json:"items_simulated"`
	CacheHits        uint64 `json:"cache_hits"`
	Resumed          uint64 `json:"resumed"`
}

func (c *simCounters) add(s sim.EngineStats) {
	c.RecordsSimulated += s.RecordsSimulated
	c.ItemsSimulated += s.Simulated
	c.CacheHits += s.CacheHits
	c.Resumed += s.Resumed
}

// passReport is what a child prints on its standard output.
type passReport struct {
	SetupS float64 `json:"setup_s"`
	// WallS is the measured phase (the cold phase for sweep-exact).
	WallS float64 `json:"wall_s"`
	// Records is Σ Result.Records of the measured phase: the branch
	// records the user asked for, whatever the engine did to serve them.
	Records uint64 `json:"records"`
	// JobMS are the latencies of the pass's user requests (jobs), which
	// ran during JobsS seconds; Failed of them did not complete.
	JobMS  []float64 `json:"job_ms"`
	JobsS  float64   `json:"jobs_s"`
	Failed int       `json:"failed"`
	// PeakRSSMiB is the child's peak resident set (VmHWM).
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	// Digest hashes every simulated counter the pass produced.
	Digest   string             `json:"digest"`
	Sim      simCounters        `json:"sim"`
	Problems []string           `json:"problems,omitempty"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

// pass is one execution of a workload inside a child process.
type pass struct {
	passSpec
	sc    scale
	tr    *tracer // nil when untraced
	start time.Time
	rep   passReport
	// digest accumulates every simulated counter in result order.
	digest hash.Hash
	// layers collects the traced pass's per-layer metrics.
	layers map[string]float64
	// materializeNS (per record) and snapFiles feed the share estimates.
	materializeNS float64
	snapFiles     float64
}

// ready ends set-up: everything before it is set-up time, everything
// after is measured.
func (p *pass) ready() {
	p.rep.SetupS = time.Since(p.start).Seconds()
}

// problem records a correctness failure; the run then reports
// correct=false and exits non-zero.
func (p *pass) problem(format string, args ...any) {
	p.rep.Problems = append(p.rep.Problems, fmt.Sprintf(format, args...))
}

// addResults folds measured results into the digest and the record
// count.
func (p *pass) addResults(rs []sim.Result) {
	for _, r := range rs {
		p.addCounters(r.Predictor, r.Trace, r.Instructions, r.Records, r.Conditionals, r.Mispredicted)
	}
}

// addTraceResults is addResults for service job results.
func (p *pass) addTraceResults(rs []client.TraceResult) {
	for _, r := range rs {
		p.addCounters(r.Predictor, r.Trace, r.Instructions, r.Records, r.Conditionals, r.Mispredicted)
	}
}

func (p *pass) addCounters(pred, trace string, instr, records, cond, misp uint64) {
	fmt.Fprintf(p.digest, "%s %s %d %d %d %d\n", pred, trace, instr, records, cond, misp)
	p.rep.Records += records
}

// layer sets a per-layer metric of a traced pass.
func (p *pass) layer(name string, v float64) {
	if p.layers != nil {
		p.layers[name] = v
	}
}

// runChild executes the pass named by the childEnv variable and prints
// its report; it returns the process exit code.
func runChild(env string) int {
	var spec passSpec
	if err := json.Unmarshal([]byte(env), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "imliperf: bad pass spec:", err)
		return 2
	}
	p := &pass{passSpec: spec, start: time.Unix(0, spec.StartNS), digest: sha256.New()}
	w, ok := workloadByName(spec.Workload)
	sc, okScale := scales[spec.Scale]
	if !ok || !okScale {
		fmt.Fprintf(os.Stderr, "imliperf: unknown workload %q or scale %q\n", spec.Workload, spec.Scale)
		return 2
	}
	p.sc = sc
	if spec.Traced {
		p.tr = newTracer(spec.Workload)
		p.layers = map[string]float64{}
	}
	err := w.run(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imliperf: %s: %v\n", spec.Workload, err)
		return 1
	}
	if p.rep.PeakRSSMiB, err = peakRSSMiB(); err != nil {
		fmt.Fprintln(os.Stderr, "imliperf:", err)
		return 1
	}
	p.rep.Digest = hex.EncodeToString(p.digest.Sum(nil)[:16])
	if p.tr != nil {
		p.rep.Layers = p.layers
		p.rep.Spans = p.tr.spans
	}
	if err := json.NewEncoder(os.Stdout).Encode(p.rep); err != nil {
		fmt.Fprintln(os.Stderr, "imliperf: writing pass report:", err)
		return 1
	}
	return 0
}

// peakRSSMiB reads this process's peak resident set from
// /proc/self/status. (The parent cannot use the child's rusage: Linux
// folds the parent's resident set into it at exec.)
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kib, err := strconv.ParseFloat(f[1], 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
