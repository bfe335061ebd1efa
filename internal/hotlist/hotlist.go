// Package hotlist is the single source of truth for the predict/train
// hot path's entry points. Two independent gates consume it and
// therefore cannot drift:
//
//   - alloc_test.go (the runtime gate) drives every registry
//     configuration through exactly these methods and asserts zero
//     steady-state allocations per branch, failing if an entry here has
//     no driver or a driver has no entry here;
//   - the hotpath analyzer in internal/analysis/hotpath (the static
//     gate) roots its call graph at these methods and flags
//     allocation-prone constructs anywhere reachable from them, with
//     file:line diagnostics instead of an opaque allocs/op count.
//
// Adding a new hot entry point means adding it here once; both gates
// pick it up or fail loudly.
package hotlist

// Packages are the import paths whose types carry the hot-path entry
// methods. Every predictor the registry can build lives behind
// internal/predictor (Composite and the baseline adapters), so the
// call graph rooted there covers every configuration.
func Packages() []string {
	return []string{"repro/internal/predictor"}
}

// Methods are the per-branch entry points of the predictor.Predictor
// call protocol — the simulation engine calls these once per record in
// the hot loop (DESIGN.md §7) — plus the two halves of Composite.Train,
// which the speculative pipeline model (internal/sim/spec.go) calls
// separately.
func Methods() []string {
	return []string{"Predict", "Train", "TrackOther", "TrainTables", "SpecPush"}
}
