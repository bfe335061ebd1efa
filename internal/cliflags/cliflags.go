// Package cliflags registers the engine flags shared by the command
// line tools (imlisim, imlibench, imlireport, imlid), so the flag
// names, defaults, wording, and the mapping onto sim.EngineConfig live
// in one place — the audited single source the README table and
// DESIGN.md §5–§9 describe. Tool-specific flags (imlisim's
// -cache-prune, imlid's -addr, ...) stay with their tools.
package cliflags

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Engine holds the parsed values of the shared engine flags.
type Engine struct {
	// Parallel is -parallel: the engine-wide bound on concurrent shard
	// simulations.
	Parallel int
	// Shards is -shards: work items per benchmark.
	Shards int
	// CacheDir is -cache-dir: the on-disk result store root.
	CacheDir string
	// StreamMemMiB is -stream-mem in MiB (0 default, negative
	// disables).
	StreamMemMiB int
	// Snapshots is -snapshots; ExactShards is -exact-shards.
	Snapshots   bool
	ExactShards bool
}

// Register adds the shared engine flags to fs with the canonical
// wording and defaults, returning the destination the parsed values
// land in.
func Register(fs *flag.FlagSet) *Engine {
	e := &Engine{}
	fs.IntVar(&e.Parallel, "parallel", 0,
		"max concurrent shard simulations, engine-wide (0 = GOMAXPROCS)")
	fs.IntVar(&e.Shards, "shards", 1,
		"work items per benchmark: split each budget into contiguous stream segments (DESIGN.md §5)")
	fs.StringVar(&e.CacheDir, "cache-dir", "",
		"content-addressed result cache directory; repeated runs only simulate what is missing")
	fs.IntVar(&e.StreamMemMiB, "stream-mem", 0,
		"materialized-stream cache bound in MiB (0 = default, negative disables materialization; DESIGN.md §6)")
	fs.BoolVar(&e.Snapshots, "snapshots", false,
		"persist predictor-state snapshots and resume longer-budget runs from cached prefixes (needs -cache-dir; DESIGN.md §8)")
	fs.BoolVar(&e.ExactShards, "exact-shards", false,
		"chain shard boundary snapshots so sharded results are bit-identical to unsharded runs (implies -snapshots)")
	return e
}

// RegisterSeeds adds the shared -seeds flag with the canonical wording.
// It is opt-in rather than part of Register because only the tools
// that fan simulations out over stream seeds take it (imlisim,
// imlibench, imlireport); imlid jobs carry their own parameters.
func RegisterSeeds(fs *flag.FlagSet) *int {
	return fs.Int("seeds", 1,
		"stream-seed variants per benchmark: fan runs out over seeds 0..N-1 and report mean ± 95% CI (DESIGN.md §10)")
}

// SeedList validates a parsed -seeds count and expands it to the seed
// list experiment parameters take (nil for a single seed).
func SeedList(n int) ([]int64, error) {
	if n < 1 {
		return nil, fmt.Errorf("-seeds must be at least 1, got %d", n)
	}
	return experiments.SeedList(n), nil
}

// Positive validates a count-like flag that must be strictly
// positive, with the error naming the flag so the user knows what to
// fix. Tools that default such flags sensibly still reject explicit
// zero or negative values instead of silently "fixing" them — a
// daemon started with -job-workers=0 would otherwise run with a
// default the operator did not ask for.
func Positive(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be positive, got %d", name, v)
	}
	return nil
}

// PositiveDuration is Positive for duration flags.
func PositiveDuration(name string, v time.Duration) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be positive, got %s", name, v)
	}
	return nil
}

// Config maps the parsed flags onto an engine configuration.
func (e *Engine) Config() sim.EngineConfig {
	return sim.EngineConfig{
		Workers:      e.Parallel,
		Shards:       e.Shards,
		CacheDir:     e.CacheDir,
		StreamMemory: sim.StreamMemoryFromMiB(e.StreamMemMiB),
		Snapshots:    e.Snapshots,
		ExactShards:  e.ExactShards,
	}
}

// Params maps the parsed flags onto experiment-harness parameters at
// the given branch budget.
func (e *Engine) Params(budget int) experiments.Params {
	return experiments.Params{
		Budget:       budget,
		Parallel:     e.Parallel,
		Shards:       e.Shards,
		CacheDir:     e.CacheDir,
		StreamMemory: sim.StreamMemoryFromMiB(e.StreamMemMiB),
		Snapshots:    e.Snapshots,
		ExactShards:  e.ExactShards,
	}
}
