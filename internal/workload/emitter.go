// Package workload generates the deterministic synthetic benchmark
// suite that substitutes for the proprietary CBP3/CBP4 trace sets (see
// DESIGN.md §2). Each benchmark is a seeded mixture of branch-behaviour
// kernels; the kernels instantiate the correlation classes the paper's
// evaluation hinges on — wormhole-class multidimensional loops,
// same-iteration correlation with regular and irregular trip counts,
// nested conditionals, constant-trip loop exits, local-periodic
// branches and globally correlated or biased filler.
package workload

import (
	"repro/internal/num"
	"repro/internal/trace"
)

// emitter collects records from kernels and enforces the branch
// budget.
type emitter struct {
	sink func(trace.Record)
	// check, when set, is called at every budget check, before the
	// check is answered: materialization marks the record the check
	// follows (see StreamCache).
	check func()
	rng   *num.Rand
	count int
	limit int
}

// more is the budget check: generation stops at the first one made
// with count records emitted and count >= limit. Kernels call it only
// between iterations, so a stream overshoots its budget to the next
// check.
func (e *emitter) more() bool {
	if e.check != nil {
		e.check()
	}
	return e.count < e.limit
}

func (e *emitter) gap() uint8 { return uint8(3 + e.rng.Intn(7)) }

func (e *emitter) emit(r trace.Record) {
	r.InstrGap = e.gap()
	e.sink(r)
	e.count++
}

// site is a static branch location.
type site struct {
	pc     uint64
	target uint64
	kind   trace.Kind
}

// cond emits a conditional branch outcome at the site.
func (e *emitter) cond(s site, taken bool) {
	e.emit(trace.Record{PC: s.pc, Target: s.target, Kind: trace.CondDirect, Taken: taken})
}

// other emits a non-conditional branch at the site.
func (e *emitter) other(s site) {
	e.emit(trace.Record{PC: s.pc, Target: s.target, Kind: s.kind, Taken: true})
}

// otherTo emits a non-conditional branch with an explicit dynamic
// target (returns and polymorphic indirect jumps).
func (e *emitter) otherTo(s site, target uint64) {
	e.emit(trace.Record{PC: s.pc, Target: target, Kind: s.kind, Taken: true})
}

// siteAlloc hands out static branch sites inside a kernel's PC region.
// Sites are 4 bytes apart (instruction-sized) so that the branches of
// one kernel land in distinct IMLI-OH branch slots ((pc>>2) mod 16),
// and regions are staggered across kernels for the same reason.
type siteAlloc struct {
	next uint64
}

func newSiteAlloc(kernelIndex int) *siteAlloc {
	// Each kernel gets a 1 MiB region; benchmarks start at 4 MiB.
	base := uint64(4+kernelIndex) << 20
	return &siteAlloc{next: base + uint64(kernelIndex%16)*8}
}

// fwd allocates a forward conditional branch site.
func (a *siteAlloc) fwd() site {
	pc := a.next
	a.next += 4
	return site{pc: pc, target: pc + 64, kind: trace.CondDirect}
}

// back allocates a backward conditional branch site (a loop-closing
// branch for the IMLI heuristic) jumping span bytes back.
func (a *siteAlloc) back(span uint64) site {
	pc := a.next
	a.next += 4
	return site{pc: pc, target: pc - span, kind: trace.CondDirect}
}

// jump allocates a non-conditional site of the given kind.
func (a *siteAlloc) jump(kind trace.Kind) site {
	pc := a.next
	a.next += 4
	return site{pc: pc, target: pc + 256, kind: kind}
}

// bitvec is a mutable random bit pattern used as synthetic "data" the
// correlated branches test.
type bitvec struct {
	bits []uint8
}

func newBitvec(rng *num.Rand, n int) *bitvec {
	v := &bitvec{bits: make([]uint8, n)}
	for i := range v.bits {
		if rng.Bool() {
			v.bits[i] = 1
		}
	}
	return v
}

func (v *bitvec) at(i int) bool {
	n := len(v.bits)
	i %= n
	if i < 0 {
		i += n
	}
	return v.bits[i] == 1
}

// mutate flips each bit with probability p (the slow data drift that
// keeps correlations alive across outer iterations while defeating
// whole-pattern memorisation by the global history predictor).
func (v *bitvec) mutate(rng *num.Rand, p float64) {
	for i := range v.bits {
		if rng.Prob(p) {
			v.bits[i] ^= 1
		}
	}
}

// regenerate redraws every bit (fresh data for a new scan of the nest).
func (v *bitvec) regenerate(rng *num.Rand) {
	for i := range v.bits {
		if rng.Bool() {
			v.bits[i] = 1
		} else {
			v.bits[i] = 0
		}
	}
}
