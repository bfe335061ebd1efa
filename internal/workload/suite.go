package workload

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/num"
	"repro/internal/trace"
)

// Benchmark is one synthetic trace definition: a named, seeded mixture
// of kernels. Generation is deterministic in (Seed, budget).
type Benchmark struct {
	// Name follows the paper's trace naming (SPEC2K6-12, MM-4,
	// CLIENT02, MM07, WS04, ...).
	Name string
	// Suite is "cbp4" or "cbp3".
	Suite string
	// Seed drives all randomness in the benchmark.
	Seed uint64

	parts []part
}

// part is one weighted kernel of a benchmark mixture.
type part struct {
	weight float64
	mk     func(rng *num.Rand, alloc *siteAlloc) kernel
}

// Reseeded returns a copy of b generating seed variant v of its
// stream: variant 0 is b itself (bit-identical to every number the
// harness has ever reported), and any other variant deterministically
// remixes the benchmark's base seed so the copy emits a different —
// but identically structured — instance of the same kernel mixture.
// Name and Suite are unchanged; the engine's result store, snapshot
// keys, and the stream cache all key on the seed value, so variants
// coexist in one cache without collisions.
func (b Benchmark) Reseeded(v int64) Benchmark {
	if v == 0 {
		return b
	}
	b.Seed = num.Mix(b.Seed ^ (uint64(v) * 0x9E3779B97F4A7C15))
	return b
}

// Reseed applies Reseeded to a whole benchmark list (one seed variant
// of a suite).
func Reseed(benches []Benchmark, v int64) []Benchmark {
	if v == 0 {
		return benches
	}
	out := make([]Benchmark, len(benches))
	for i, b := range benches {
		out[i] = b.Reseeded(v)
	}
	return out
}

// Generate emits up to budget branch records into sink.
func (b Benchmark) Generate(budget int, sink func(trace.Record)) {
	b.generate(budget, sink, nil)
}

// generate is Generate, calling check (when non-nil) at every budget
// check (emitter.more).
func (b Benchmark) generate(budget int, sink func(trace.Record), check func()) {
	e := &emitter{sink: sink, check: check, rng: num.NewRand(b.Seed ^ 0xE417), limit: budget}
	kernels := make([]kernel, len(b.parts))
	weights := make([]float64, len(b.parts))
	var wsum float64
	for _, p := range b.parts {
		wsum += p.weight
	}
	for i, p := range b.parts {
		alloc := newSiteAlloc(i)
		kernels[i] = p.mk(num.NewRand(b.Seed+uint64(i)*0x9E3779B9+1), alloc)
		weights[i] = p.weight / wsum
	}
	emitted := make([]int, len(b.parts))
	for e.more() {
		// Greedy deficit scheduling keeps each kernel's share of the
		// dynamic branch stream near its weight.
		best, bestDef := 0, -1.0e18
		for i := range kernels {
			def := weights[i]*float64(e.count+1) - float64(emitted[i])
			if def > bestDef {
				best, bestDef = i, def
			}
		}
		before := e.count
		kernels[best].episode(e)
		if e.count == before {
			emitted[best]++ // defensive: never spin on an empty episode
		} else {
			emitted[best] += e.count - before
		}
	}
}

// Stats generates the benchmark and returns summary statistics
// (used by tests and the trace tooling).
func (b Benchmark) Stats(budget int) trace.Stats {
	var s trace.Stats
	b.Generate(budget, s.Add)
	return s
}

// Sharding splits a benchmark's budget into n contiguous segments of
// the one deterministic stream Generate produces (the stream is a pure
// function of Seed, so any prefix can be regenerated at will). Shard s
// covers records [ShardStart(budget, s, n), ShardStart(budget, s+1, n));
// the segments always sum to budget exactly, with the first budget%n
// shards one record longer. See DESIGN.md §5 for how the simulation
// engine warms a predictor into the middle of the stream.

// ShardBudget returns the record count of shard s of an n-way split.
func ShardBudget(budget, s, n int) int {
	if n <= 1 {
		return budget
	}
	q, r := budget/n, budget%n
	if s < r {
		return q + 1
	}
	return q
}

// ShardStart returns the stream offset at which shard s of an n-way
// split begins.
func ShardStart(budget, s, n int) int {
	if n <= 1 {
		return 0
	}
	q, r := budget/n, budget%n
	start := s * q
	if s < r {
		return start + s
	}
	return start + r
}

// part constructors used by the suite tables.

func nest(w float64, cfg nestConfig) part {
	return part{weight: w, mk: func(rng *num.Rand, alloc *siteAlloc) kernel {
		return newNestKernel(cfg, rng, alloc)
	}}
}

func loopx(w float64, trip, reps, noise int) part {
	return part{weight: w, mk: func(rng *num.Rand, alloc *siteAlloc) kernel {
		return newLoopExitKernel(trip, reps, noise, rng, alloc)
	}}
}

func localp(w float64, n, iters int) part {
	return part{weight: w, mk: func(rng *num.Rand, alloc *siteAlloc) kernel {
		return newLocalKernel(n, iters, rng, alloc)
	}}
}

func easy(w float64, n, iters int) part {
	return part{weight: w, mk: func(rng *num.Rand, alloc *siteAlloc) kernel {
		return newEasyKernel(n, iters, rng, alloc)
	}}
}

func biased(w float64, n, iters int, flip float64) part {
	return part{weight: w, mk: func(rng *num.Rand, alloc *siteAlloc) kernel {
		return newBiasedKernel(n, iters, flip, rng, alloc)
	}}
}

func callret(w float64, iters int) part {
	return part{weight: w, mk: func(rng *num.Rand, alloc *siteAlloc) kernel {
		return newCallRetKernel(iters, rng, alloc)
	}}
}

func seedOf(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// std assembles the predictable bulk of a benchmark: easy patterned
// branches, a biased floor, structure noise and optional local and
// loop-exit slices.
func std(floorW, flip, localW, loopW float64) []part {
	parts := []part{
		easy(1-floorW-localW-loopW-0.08, 6, 120),
		biased(floorW, 4, 80, flip),
		callret(0.08, 60),
	}
	if localW > 0 {
		parts = append(parts, localp(localW, 5, 60))
	}
	if loopW > 0 {
		// Short constant-trip loops: the exit is a large fraction of
		// the kernel's mispredictions, fixable only by a loop
		// predictor or IMLI-SIC (the body noise defeats history
		// contexts), giving the §2.3.3 loop-predictor reclaim.
		parts = append(parts, loopx(loopW, 15, 8, 1))
	}
	return parts
}

func mk(name, suite string, parts ...[]part) Benchmark {
	b := Benchmark{Name: name, Suite: suite, Seed: seedOf(name)}
	for _, ps := range parts {
		b.parts = append(b.parts, ps...)
	}
	return b
}

// suiteTables holds both suites and a name index over them.
type suiteTables struct {
	cbp4, cbp3 []Benchmark
	byName     map[string]Benchmark
}

// tables builds the suite definitions once: they are pure data, and
// ByName sits on the path of every remote work item. The accessors
// below hand out copies of the slices, because callers own what they
// get; the parts slices stay shared, since only construction writes
// them.
var tables = sync.OnceValue(func() suiteTables {
	t := suiteTables{cbp4: buildCBP4(), cbp3: buildCBP3()}
	t.byName = make(map[string]Benchmark, len(t.cbp4)+len(t.cbp3))
	for _, b := range slices.Concat(t.cbp4, t.cbp3) {
		t.byName[b.Name] = b
	}
	return t
})

// CBP4 returns the 40-trace CBP4-like suite. The named special
// benchmarks carry the correlation kernels the paper attributes to
// them (see DESIGN.md §2).
func CBP4() []Benchmark { return slices.Clone(tables().cbp4) }

// CBP3 returns the 40-trace CBP3-like suite (higher base misprediction
// rates, like the paper's CBP3 numbers).
func CBP3() []Benchmark { return slices.Clone(tables().cbp3) }

func buildCBP4() []Benchmark {
	var out []Benchmark
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("SPEC2K6-%02d", i)
		switch i {
		case 4:
			// Strong IMLI-SIC benefit: same-iteration correlation with
			// irregular trip counts plus a nested conditional — WH and
			// the loop predictor cannot track either (§4.2.2).
			out = append(out, mk(name, "cbp4",
				[]part{nest(0.06, nestConfig{
					Outer: 30, InnerMin: 40, InnerMax: 56,
					SameIter: true, NestedCond: true,
					NoisePerIter: 1, MutateProb: 0.02,
				})},
				std(0.16, 0.05, 0, 0)))
		case 12:
			// Wormhole-class: previous-outer-iteration diagonal
			// correlation in a constant-trip nest, plus a same-
			// iteration branch (SIC helps some, OH/WH help more).
			out = append(out, mk(name, "cbp4",
				[]part{nest(0.18, nestConfig{
					Outer: 40, InnerMin: 48, InnerMax: 48,
					PrevDiag: true, SameIter: true,
					NoisePerIter: 4, MutateProb: 0.02,
				})},
				std(0.10, 0.05, 0.004, 0)))
		default:
			flip := 0.03 + 0.004*float64(i%8)
			localW := 0.0
			if i%2 == 0 {
				localW = 0.003 + 0.001*float64(i%4)
			}
			loopW := 0.0
			if i%5 == 0 {
				loopW = 0.05
			}
			out = append(out, mk(name, "cbp4", std(0.22, flip, localW, loopW)))
		}
	}
	for i := 1; i <= 10; i++ {
		name := fmt.Sprintf("MM-%d", i)
		switch i {
		case 4:
			// Inverted outer correlation Out[N][M] = 1-Out[N-1][M]:
			// captured by OH/WH, missed by SIC (§4.3). Low base MPKI.
			out = append(out, mk(name, "cbp4",
				[]part{nest(0.02, nestConfig{
					Outer: 32, InnerMin: 32, InnerMax: 32,
					Inverted:     true,
					NoisePerIter: 1, MutateProb: 0.01,
				})},
				std(0.06, 0.03, 0, 0)))
		default:
			flip := 0.02 + 0.005*float64(i%5)
			localW := 0.0
			if i%3 == 0 {
				localW = 0.004
			}
			out = append(out, mk(name, "cbp4", std(0.14, flip, localW, 0)))
		}
	}
	for i := 1; i <= 10; i++ {
		name := fmt.Sprintf("SERVER-%d", i)
		flip := 0.04 + 0.005*float64(i%6)
		localW := 0.0
		if i%2 == 1 {
			localW = 0.003
		}
		b := mk(name, "cbp4", std(0.20, flip, localW, 0))
		b.parts = append(b.parts, callret(0.10, 80))
		out = append(out, b)
	}
	return out
}

func buildCBP3() []Benchmark {
	var out []Benchmark
	for i := 1; i <= 10; i++ {
		name := fmt.Sprintf("CLIENT%02d", i)
		switch i {
		case 2:
			// Hard wormhole-class benchmark (>15 MPKI base).
			out = append(out, mk(name, "cbp3",
				[]part{nest(0.26, nestConfig{
					Outer: 50, InnerMin: 40, InnerMax: 40,
					PrevDiag: true, SameIter: true,
					NoisePerIter: 4, MutateProb: 0.02,
				})},
				std(0.12, 0.06, 0.005, 0)))
		default:
			flip := 0.05 + 0.006*float64(i%6)
			loopW := 0.0
			if i%3 == 0 {
				loopW = 0.08
			}
			out = append(out, mk(name, "cbp3", std(0.28, flip, 0.005, loopW)))
		}
	}
	for i := 1; i <= 10; i++ {
		name := fmt.Sprintf("MM%02d", i)
		switch i {
		case 7:
			// Hardest benchmark (>20 MPKI): diagonal + same-iteration
			// + nested conditional in one constant-trip nest.
			out = append(out, mk(name, "cbp3",
				[]part{nest(0.33, nestConfig{
					Outer: 40, InnerMin: 36, InnerMax: 36,
					PrevDiag: true, SameIter: true, NestedCond: true,
					NoisePerIter: 4, MutateProb: 0.02,
				})},
				std(0.10, 0.06, 0.006, 0)))
		default:
			flip := 0.04 + 0.006*float64(i%5)
			localW := 0.0
			if i%2 == 0 {
				localW = 0.006
			}
			out = append(out, mk(name, "cbp3", std(0.24, flip, localW, 0)))
		}
	}
	for i := 1; i <= 10; i++ {
		name := fmt.Sprintf("WS%02d", i)
		switch i {
		case 3:
			// Marginal SIC/OH improvement.
			out = append(out, mk(name, "cbp3",
				[]part{nest(0.02, nestConfig{
					Outer: 30, InnerMin: 28, InnerMax: 44,
					SameIter:     true,
					NoisePerIter: 1, MutateProb: 0.015,
				})},
				std(0.22, 0.06, 0.004, 0)))
		case 4:
			// Strong SIC benefit (−3.2 MPKI in the paper), irregular
			// trip counts so WH gets nothing.
			out = append(out, mk(name, "cbp3",
				[]part{nest(0.09, nestConfig{
					Outer: 40, InnerMin: 30, InnerMax: 50,
					SameIter: true, NestedCond: true,
					NoisePerIter: 1, MutateProb: 0.015,
				})},
				std(0.16, 0.06, 0.005, 0)))
		default:
			flip := 0.05 + 0.005*float64(i%6)
			localW := 0.0
			if i%2 == 1 {
				localW = 0.006
			}
			loopW := 0.0
			if i%2 == 0 {
				loopW = 0.09
			}
			out = append(out, mk(name, "cbp3", std(0.26, flip, localW, loopW)))
		}
	}
	for i := 1; i <= 10; i++ {
		name := fmt.Sprintf("SERVER%02d", i)
		flip := 0.05 + 0.005*float64(i%7)
		localW := 0.0
		if i%3 != 0 {
			localW = 0.005
		}
		loopW := 0.0
		if i%4 == 0 {
			loopW = 0.07
		}
		b := mk(name, "cbp3", std(0.24, flip, localW, loopW))
		b.parts = append(b.parts, callret(0.10, 80))
		out = append(out, b)
	}
	return out
}

// Suites returns both suites keyed by name ("cbp4", "cbp3").
func Suites() map[string][]Benchmark {
	return map[string][]Benchmark{"cbp4": CBP4(), "cbp3": CBP3()}
}

// All returns every benchmark of both suites, CBP4 first.
func All() []Benchmark {
	t := tables()
	return slices.Concat(t.cbp4, t.cbp3)
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	if b, ok := tables().byName[name]; ok {
		return b, nil
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns every benchmark name, sorted.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = b.Name
	}
	sort.Strings(out)
	return out
}
