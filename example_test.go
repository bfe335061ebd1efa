package imli_test

import (
	"fmt"
	"os"
	"reflect"

	imli "repro"
)

// Example is the 30-second loop: build a predictor, pick a benchmark,
// simulate, read MPKI.
func Example() {
	p, _ := imli.NewPredictor("tage-gsc+imli")
	b, _ := imli.BenchmarkByName("SPEC2K6-12")
	res := imli.Simulate(p, b, 20000)
	fmt.Println(res.Trace, "simulated:", res.Records >= 20000, "with MPKI measured:", res.MPKI() > 0)
	// Output: SPEC2K6-12 simulated: true with MPKI measured: true
}

// ExampleWithStreamCache bounds the resident memory of materialized
// benchmark streams (DESIGN.md §6). Each benchmark's record stream is
// generated once per run and shared by every shard and configuration;
// the bound caps how many streams stay resident (oversized streams
// fall back to callback generation, so results never change — only
// speed).
func ExampleWithStreamCache() {
	run, err := imli.SimulateSuite("bimodal", "cbp4", 2000,
		imli.WithStreamCache(8<<20), // keep at most 8 MiB of streams resident
	)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(run.Results), "benchmarks simulated")
	// Output: 40 benchmarks simulated
}

// ExampleWithExactSharding_resume shows budget-sweep resume
// (DESIGN.md §8): with the snapshot layer on and a cache directory, a
// longer-budget run of the same configuration resumes from the
// persisted end-state of a shorter one instead of re-training from
// record 0 — and the result stays bit-identical to a cold run.
func ExampleWithExactSharding_resume() {
	dir, err := os.MkdirTemp("", "imli-cache-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// The short run persists its end-of-run predictor state...
	if _, err := imli.SimulateSuite("gshare", "cbp4", 2000,
		imli.WithExactSharding(true), imli.WithCacheDir(dir)); err != nil {
		panic(err)
	}
	// ...and the longer run resumes from it, simulating only the tail.
	resumed, err := imli.SimulateSuite("gshare", "cbp4", 4000,
		imli.WithExactSharding(true), imli.WithCacheDir(dir))
	if err != nil {
		panic(err)
	}
	cold, err := imli.SimulateSuite("gshare", "cbp4", 4000)
	if err != nil {
		panic(err)
	}
	fmt.Println("resumed run bit-identical to cold run:",
		reflect.DeepEqual(resumed.Results, cold.Results))
	// Output: resumed run bit-identical to cold run: true
}

// ExampleWithExactSharding shows the bit-exact sharding mode
// (DESIGN.md §8): shards chain through boundary snapshots instead of
// functional warm-up, so the merged sharded counters equal the
// unsharded run exactly — no §5 tolerance.
func ExampleWithExactSharding() {
	sharded, err := imli.SimulateSuite("gshare", "cbp4", 4000,
		imli.WithShards(4), imli.WithExactSharding(true))
	if err != nil {
		panic(err)
	}
	unsharded, err := imli.SimulateSuite("gshare", "cbp4", 4000)
	if err != nil {
		panic(err)
	}
	fmt.Println("4-way sharded bit-identical to unsharded:",
		reflect.DeepEqual(sharded.Results, unsharded.Results))
	// Output: 4-way sharded bit-identical to unsharded: true
}

// ExampleSimulateTargets drives the fetch-target unit (BTB, return
// address stack, indirect predictor) over a benchmark. Its backward
// hint is the fetch-time bit the IMLI counter needs (§4.1): after
// warm-up the BTB supplies it for nearly every conditional branch.
func ExampleSimulateTargets() {
	b, err := imli.BenchmarkByName("SERVER01")
	if err != nil {
		panic(err)
	}
	res := imli.SimulateTargets(imli.NewTargetUnit(), b, 20000)
	fmt.Printf("%s: %d taken transfers, %.2f%% target misses, %.1f%% hint coverage\n",
		res.Trace, res.Branches, 100*res.TargetMissRate(), 100*res.HintCoverage())
	// Output: SERVER01: 13263 taken transfers, 0.42% target misses, 99.8% hint coverage
}
