// Package cliflags registers the engine flags shared by the command
// line tools (imlisim, imlireport, imlid, imliworker), so
// the flag names, defaults, wording, and the mapping onto
// sim.EngineConfig live in one place — the audited single source the
// README table and DESIGN.md §5–§9 describe. Tool-specific flags
// (imlisim's -cache-prune, imlid's -addr, ...) stay with their tools.
package cliflags

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// Engine holds the parsed values of the shared engine flags. Every
// flag but -cache-dir and -stream-mem binds straight into the embedded
// engine configuration.
type Engine struct {
	sim.EngineConfig
	// CacheDir is -cache-dir; Config opens the engine's Store there
	// when it is non-empty.
	CacheDir string
	// StreamMemMiB is -stream-mem in MiB (0 default, negative
	// disables); Config converts it to EngineConfig.StreamMemory.
	StreamMemMiB int
}

// Register adds the shared engine flags to fs with the canonical
// wording and defaults, returning the destination the parsed values
// land in.
func Register(fs *flag.FlagSet) *Engine {
	e := &Engine{}
	fs.IntVar(&e.Workers, "parallel", 0,
		"max concurrent shard simulations, engine-wide (0 = GOMAXPROCS)")
	fs.IntVar(&e.Shards, "shards", 1,
		"work items per benchmark: split each budget into contiguous stream segments (DESIGN.md §5)")
	fs.StringVar(&e.CacheDir, "cache-dir", "",
		"content-addressed result cache directory; repeated runs only simulate what is missing")
	fs.IntVar(&e.StreamMemMiB, "stream-mem", 0,
		"materialized-stream cache bound in MiB (0 = default, negative disables materialization; DESIGN.md §6)")
	fs.BoolVar(&e.ExactShards, "exact-shards", false,
		"snapshot predictor state: sharded runs chain shard boundaries, bit-identical to unsharded runs; with -cache-dir, longer-budget runs resume from stored prefixes (DESIGN.md §8)")
	return e
}

// RegisterSeeds adds the shared -seeds flag with the canonical wording.
// It is opt-in rather than part of Register because only the tools
// that fan simulations out over stream seeds take it (imlisim,
// imlireport); imlid jobs carry their own parameters.
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

// Config validates the parsed flags and maps them onto an engine
// configuration: it opens the result store at -cache-dir and converts
// -stream-mem from MiB (a negative value stays negative, which
// disables materialization). -shards must be at least 1 and -parallel
// at least 0 (0 means GOMAXPROCS): the engine would otherwise run a
// value below those as 1 shard or GOMAXPROCS workers without a word.
func (e *Engine) Config() (sim.EngineConfig, error) {
	if e.Shards < 1 {
		return sim.EngineConfig{}, fmt.Errorf("-shards must be at least 1, got %d", e.Shards)
	}
	if e.Workers < 0 {
		return sim.EngineConfig{}, fmt.Errorf("-parallel must be >= 0 (0 = GOMAXPROCS), got %d", e.Workers)
	}
	cfg := e.EngineConfig
	if e.CacheDir != "" {
		cfg.Store = sim.OpenStore(e.CacheDir)
	}
	cfg.StreamMemory = int64(e.StreamMemMiB) << 20
	return cfg, nil
}
