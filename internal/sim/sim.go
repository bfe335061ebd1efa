// Package sim is the trace-driven branch prediction simulator: it
// feeds branch records to a predictor and accumulates misprediction
// statistics, reporting MPKI (mispredictions per kilo-instruction),
// the paper's accuracy metric (§3). Like the paper's methodology it
// assumes immediate updates; delayed-update effects are modelled
// explicitly by dedicated configurations (e.g. the delayed IMLI
// outer-history experiment).
package sim

import (
	"fmt"
	"io"

	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Result is the outcome of simulating one predictor over one trace.
type Result struct {
	Trace        string
	Predictor    string
	Instructions uint64
	Records      uint64
	Conditionals uint64
	Mispredicted uint64
}

// MPKI returns mispredictions per kilo-instruction.
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Mispredicted) * 1000 / float64(r.Instructions)
}

// MispredictRate returns the fraction of conditional branches
// mispredicted.
func (r Result) MispredictRate() float64 {
	if r.Conditionals == 0 {
		return 0
	}
	return float64(r.Mispredicted) / float64(r.Conditionals)
}

// FormatResult renders the one-line human summary of a result — the
// exact line imlisim prints per trace. The imlid service embeds the
// same line in job results, so "service output is bit-identical to the
// CLI" is a single-format-string property rather than a convention.
func FormatResult(r Result) string {
	return fmt.Sprintf("%-14s %-12s %9d branches %10d instr  %7d misp  %6.3f MPKI  (%.2f%% misp rate)",
		r.Predictor, r.Trace, r.Conditionals, r.Instructions, r.Mispredicted,
		r.MPKI(), r.MispredictRate()*100)
}

// FormatSuiteLine renders the suite-average summary line imlisim
// prints after a suite run, with cache accounting when any shard was
// served from the result store.
func FormatSuiteLine(run SuiteRun) string {
	s := fmt.Sprintf("%-14s avg over %d traces: %.3f MPKI", run.Config, len(run.Results), run.AvgMPKI())
	if run.CachedShards > 0 {
		s += fmt.Sprintf("  (%d/%d shards cached)", run.CachedShards, run.CachedShards+run.RanShards)
	}
	return s
}

// Feed runs the predictor over a stream of records delivered by gen
// and returns the accumulated result. gen must call its argument once
// per record, in program order.
func Feed(p predictor.Predictor, name string, gen func(func(trace.Record))) Result {
	return feedSpan(p, name, 0, 0, noLimit, gen)
}

// noLimit makes a feedSpan window right-unbounded.
const noLimit = int(^uint(0) >> 1)

// feedSpan runs the predictor over a window of the stream gen
// produces: records before warmStart are discarded without touching
// the predictor, records in [warmStart, start) train the predictor but
// are not measured (functional warm-up), records in [start, end) are
// simulated and accumulated as usual, and records from end on are
// discarded (generators may overshoot their budget at episode
// granularity; the bound keeps adjacent shards from double-counting).
// feedSpan(p, name, 0, 0, noLimit, gen) is Feed(p, name, gen).
func feedSpan(p predictor.Predictor, name string, warmStart, start, end int, gen func(func(trace.Record))) Result {
	res := Result{Trace: name, Predictor: p.Name()}
	seen := 0
	gen(func(r trace.Record) {
		i := seen
		seen++
		if i < warmStart || i >= end {
			return
		}
		feedOne(p, &res, r, i >= start)
	})
	return res
}

// feedOne feeds one record to the predictor, accumulating counters
// into res when the record is measured (warm-up records train but do
// not count). It is the single per-record body shared by the
// streaming (feedSpan) and materialized (feedRecords) paths, so the
// two can never diverge.
func feedOne(p predictor.Predictor, res *Result, r trace.Record, measured bool) {
	if measured {
		res.Records++
		res.Instructions += r.Instructions()
	}
	if r.Conditional() {
		pred := p.Predict(r.PC)
		if measured {
			res.Conditionals++
			if pred != r.Taken {
				res.Mispredicted++
			}
		}
		p.Train(r.PC, r.Target, r.Taken)
	} else {
		p.TrackOther(r.PC, r.Target, r.Kind, r.Taken)
	}
}

// feedRecords is feedSpan over a materialized stream: it pulls records
// straight from the read-only slice a workload.StreamCache handed out,
// with the window clamped to the slice. Record i of the slice plays
// the role of stream position i, so feedRecords(p, name, recs,
// warmStart, start, end) produces the exact counters
// feedSpan(p, name, warmStart, start, end, gen) would when gen emits
// recs in order. The callback path stays for true streaming sources
// (RunReader, oversized streams the cache declines to materialize).
func feedRecords(p predictor.Predictor, name string, recs []trace.Record, warmStart, start, end int) Result {
	res := Result{Trace: name, Predictor: p.Name()}
	if warmStart < 0 {
		warmStart = 0
	}
	if end > len(recs) {
		end = len(recs)
	}
	for i := warmStart; i < end; i++ {
		feedOne(p, &res, recs[i], i >= start)
	}
	return res
}

// RunBenchmark simulates one predictor configuration (by registry
// name) over one synthetic benchmark.
func RunBenchmark(config string, b workload.Benchmark, budget int) (Result, error) {
	p, err := predictor.New(config)
	if err != nil {
		return Result{}, err
	}
	return Feed(p, b.Name, func(emit func(trace.Record)) {
		b.Generate(budget, emit)
	}), nil
}

// RunReader simulates a predictor over an on-disk trace. A normal end
// of trace (io.EOF) is not an error.
func RunReader(p predictor.Predictor, r *trace.Reader) (Result, error) {
	var feedErr error
	res := Feed(p, r.Name(), func(emit func(trace.Record)) {
		for {
			rec, err := r.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				feedErr = err
				return
			}
			emit(rec)
		}
	})
	return res, feedErr
}

// SuiteRun holds per-benchmark results for one configuration over one
// suite, in suite order.
type SuiteRun struct {
	Config  string
	Suite   string
	Results []Result
	// RanShards and CachedShards report how much of the run was
	// simulated versus served from the engine's result store.
	RanShards    int
	CachedShards int
}

// AvgMPKI returns the arithmetic mean MPKI over the suite, the paper's
// headline aggregate.
func (s SuiteRun) AvgMPKI() float64 {
	if len(s.Results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range s.Results {
		sum += r.MPKI()
	}
	return sum / float64(len(s.Results))
}

// ByTrace returns the result for the named trace.
func (s SuiteRun) ByTrace(name string) (Result, bool) {
	for _, r := range s.Results {
		if r.Trace == name {
			return r, true
		}
	}
	return Result{}, false
}

// RunSuite simulates one registry configuration over every benchmark
// of the suite, in parallel across CPUs (a fresh single-use engine;
// see Engine for sharding and caching controls).
func RunSuite(config, suite string, benches []workload.Benchmark, budget int) (SuiteRun, error) {
	if err := predictor.Check(config); err != nil {
		return SuiteRun{}, err
	}
	builder := func() predictor.Predictor { return predictor.MustNew(config) }
	return RunSuiteWith(builder, config, suite, benches, budget), nil
}

// RunSuiteWith is RunSuite for a custom predictor builder (used by
// experiments whose configuration is not in the registry, such as the
// delayed-update variant).
func RunSuiteWith(builder func() predictor.Predictor, name, suite string, benches []workload.Benchmark, budget int) SuiteRun {
	return NewEngine(EngineConfig{}).RunSuite(builder, name, suite, benches, budget)
}
