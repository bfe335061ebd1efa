// Benchmarks: one per paper table/figure (regenerating the artifact at
// reduced budget and reporting the headline MPKI numbers as custom
// metrics), plus per-predictor microbenchmarks of prediction
// throughput. Run the full-size artifacts with
// `go run ./cmd/imlireport -out=- -branches=250000`.
package imli_test

import (
	"context"
	"testing"

	imli "repro"
	"repro/internal/experiments"
	"repro/internal/neural"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchBudget keeps `go test -bench=.` tractable; shapes hold at this
// size, absolute MPKI is noisier than the full 250K-branch runs.
const benchBudget = 12000

func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Params{Budget: benchBudget})
		e, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		rep := e.Run(r)
		if i == b.N-1 {
			for _, m := range metrics {
				if v, ok := rep.Values[m]; ok {
					b.ReportMetric(v, m)
				}
			}
		}
	}
}

func BenchmarkE01BasePredictors(b *testing.B) {
	benchExperiment(b, "e1", "tage-gsc.cbp4", "tage-gsc.cbp3", "gehl.cbp4", "gehl.cbp3")
}

func BenchmarkE02Wormhole(b *testing.B) {
	benchExperiment(b, "e2", "tage-gsc+wh.cbp4", "gehl+wh.cbp4")
}

func BenchmarkE03Fig8(b *testing.B) {
	benchExperiment(b, "fig8", "base.cbp4", "imli.cbp4", "base.cbp3", "imli.cbp3")
}

func BenchmarkE04Fig9(b *testing.B) {
	benchExperiment(b, "fig9", "red.SPEC2K6-12", "red.SPEC2K6-04")
}

func BenchmarkE05Fig10(b *testing.B) {
	benchExperiment(b, "fig10", "base.cbp4", "imli.cbp4")
}

func BenchmarkE06Fig11(b *testing.B) {
	benchExperiment(b, "fig11", "red.CLIENT02", "red.MM07")
}

func BenchmarkE07SIC(b *testing.B) {
	benchExperiment(b, "e7", "loopbenefit.nosic.cbp4", "loopbenefit.sic.cbp4")
}

func BenchmarkE08WHoverSIC(b *testing.B) {
	benchExperiment(b, "e8", "tage-gsc.sic.cbp4", "tage-gsc.sicwh.cbp4")
}

func BenchmarkE09Fig13(b *testing.B) {
	benchExperiment(b, "fig13", "wh.SPEC2K6-12", "oh.SPEC2K6-12")
}

func BenchmarkE10DelayedUpdate(b *testing.B) {
	benchExperiment(b, "e10", "loss.cbp4", "loss.cbp3")
}

func BenchmarkE11Table1(b *testing.B) {
	benchExperiment(b, "table1", "Base.cbp4", "+L.cbp4", "+I.cbp4", "+I+L.cbp4")
}

func BenchmarkE12Table2(b *testing.B) {
	benchExperiment(b, "table2", "Base.cbp4", "+L.cbp4", "+I.cbp4", "+I+L.cbp4")
}

func BenchmarkE13Storage(b *testing.B) {
	benchExperiment(b, "storage", "imli.bytes", "imli.checkpoint.bits")
}

func BenchmarkE14Record(b *testing.B) {
	benchExperiment(b, "record", "tage-sc-l.cbp4", "record.cbp4")
}

func BenchmarkE15LocalWorth(b *testing.B) {
	benchExperiment(b, "e15", "cost.cbp4", "reclaimed.cbp4")
}

func BenchmarkAblation(b *testing.B) {
	benchExperiment(b, "ablation", "sic512.cbp4", "noinsert.cbp4", "insert.cbp4")
}

func BenchmarkSpecCheckpointing(b *testing.B) {
	benchExperiment(b, "spec", "immediate.cbp4", "unrepaired.cbp4")
}

func BenchmarkLocalSpecWindow(b *testing.B) {
	benchExperiment(b, "localspec", "ideal.cbp4", "commitonly.cbp4")
}

func BenchmarkScaling(b *testing.B) {
	benchExperiment(b, "scaling", "small.base.cbp4", "small.imli.cbp4")
}

// --- predictor throughput microbenchmarks -----------------------------

// benchPredictor measures end-to-end predict+train cost per branch on a
// representative hard benchmark. It reports allocations: the
// predict/train round-trip is required to be allocation-free in steady
// state (see TestPredictTrainZeroAlloc and the CI alloc gate).
func benchPredictor(b *testing.B, config string) {
	b.Helper()
	bench, err := workload.ByName("SPEC2K6-12")
	if err != nil {
		b.Fatal(err)
	}
	var recs []trace.Record
	bench.Generate(1<<16, func(r trace.Record) { recs = append(recs, r) })
	// Generators emit whole episodes, so the stream overshoots the
	// requested budget; wrap at the actual length.
	n := len(recs)
	p := predictor.MustNew(config)
	b.ReportAllocs()
	b.ResetTimer()
	miss := 0
	for i := 0; i < b.N; i++ {
		r := recs[i%n]
		if r.Conditional() {
			if p.Predict(r.PC) != r.Taken {
				miss++
			}
			p.Train(r.PC, r.Target, r.Taken)
		} else {
			p.TrackOther(r.PC, r.Target, r.Kind, r.Taken)
		}
	}
	_ = miss
}

func BenchmarkPredictBimodal(b *testing.B)     { benchPredictor(b, "bimodal") }
func BenchmarkPredictGshare(b *testing.B)      { benchPredictor(b, "gshare") }
func BenchmarkPredictGEHL(b *testing.B)        { benchPredictor(b, "gehl") }
func BenchmarkPredictGEHLIMLI(b *testing.B)    { benchPredictor(b, "gehl+imli") }
func BenchmarkPredictTAGEGSC(b *testing.B)     { benchPredictor(b, "tage-gsc") }
func BenchmarkPredictTAGEGSCIMLI(b *testing.B) { benchPredictor(b, "tage-gsc+imli") }
func BenchmarkPredictTAGESCL(b *testing.B)     { benchPredictor(b, "tage-sc-l") }
func BenchmarkPredictTAGESCLIMLI(b *testing.B) { benchPredictor(b, "tage-sc-l+imli") }
func BenchmarkPredictTAGEGSCWH(b *testing.B)   { benchPredictor(b, "tage-gsc+wh") }

// BenchmarkWorkloadGeneration measures trace generation throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	bench, err := workload.ByName("CLIENT02")
	if err != nil {
		b.Fatal(err)
	}
	count := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Generate(10000, func(trace.Record) { count++ })
	}
	_ = count
}

// BenchmarkSimulateSuiteSlice measures the parallel suite runner.
func BenchmarkSimulateSuiteSlice(b *testing.B) {
	benches := workload.CBP4()[:8]
	for i := 0; i < b.N; i++ {
		run, err := sim.RunSuite("tage-gsc+imli", "cbp4", benches, 5000)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(run.AvgMPKI(), "MPKI")
		}
	}
}

// benchEngineSharded measures an 8-shard suite run over 4 benchmarks.
// The streamMem knob selects the data path: negative regenerates each
// shard's stream prefix (O(shards×budget) generation work, the
// pre-stream-layer behaviour), non-negative materializes each stream
// once and hands shards read-only slices (O(budget)). DESIGN.md §6
// quotes the before/after numbers.
func benchEngineSharded(b *testing.B, config string, streamMem int64) {
	b.Helper()
	benches := workload.CBP4()[:4]
	const budget, shards = 40000, 8
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine(sim.EngineConfig{Shards: shards, StreamMemory: streamMem})
		run := e.RunSuite(func() predictor.Predictor { return predictor.MustNew(config) },
			config, "cbp4", benches, budget)
		if i == b.N-1 {
			b.ReportMetric(run.AvgMPKI(), "MPKI")
		}
	}
}

func BenchmarkEngineSharded8Materialized(b *testing.B) { benchEngineSharded(b, "gshare", 0) }
func BenchmarkEngineSharded8Regenerate(b *testing.B)   { benchEngineSharded(b, "gshare", -1) }

// The same comparison under a heavyweight predictor, where simulation
// amortizes more of the generation cost.
func BenchmarkEngineSharded8MaterializedTAGE(b *testing.B) {
	benchEngineSharded(b, "tage-gsc+imli", 0)
}
func BenchmarkEngineSharded8RegenerateTAGE(b *testing.B) {
	benchEngineSharded(b, "tage-gsc+imli", -1)
}

// benchBudgetSweep measures an ascending branch-budget sweep
// (25K→200K, the paper's §4 scaling shape) of one configuration over
// one benchmark. With snapshots disabled every budget re-trains from
// record 0 (sum(budgets) ≈ 375K records of simulation); with the
// snapshot layer each budget resumes from the previous one's end
// snapshot (max(budget) ≈ 200K records). DESIGN.md §8 quotes the
// before/after numbers.
func benchBudgetSweep(b *testing.B, snapshots bool) {
	b.Helper()
	benches := workload.CBP4()[:1]
	budgets := []int{25000, 50000, 100000, 200000}
	const config = "tage-sc-l+imli"
	for i := 0; i < b.N; i++ {
		cfg := sim.EngineConfig{}
		if snapshots {
			cfg.ExactShards = true
			cfg.CacheDir = b.TempDir()
		}
		e := sim.NewEngine(cfg)
		var last sim.SuiteRun
		for _, budget := range budgets {
			last = e.RunSuite(func() predictor.Predictor { return predictor.MustNew(config) },
				config, "cbp4", benches, budget)
		}
		if i == b.N-1 {
			b.ReportMetric(last.AvgMPKI(), "MPKI")
			b.ReportMetric(float64(e.Stats().RecordsSimulated), "records")
		}
	}
}

func BenchmarkBudgetSweepCold(b *testing.B)   { benchBudgetSweep(b, false) }
func BenchmarkBudgetSweepResume(b *testing.B) { benchBudgetSweep(b, true) }

// snapshotState runs tage-sc-l+imli, the largest registry snapshot,
// over 20K records of SPEC2K6-12 and returns it with its encoded state.
func snapshotState(b *testing.B) (snap.Snapshotter, []byte) {
	b.Helper()
	bench, err := workload.ByName("SPEC2K6-12")
	if err != nil {
		b.Fatal(err)
	}
	p := predictor.MustNew("tage-sc-l+imli")
	sim.Feed(p, bench.Name, func(emit func(trace.Record)) { bench.Generate(20000, emit) })
	sp := p.(snap.Snapshotter)
	e := snap.NewEncoder()
	sp.Snapshot(e)
	return sp, e.Bytes()
}

// BenchmarkSnapshotEncode measures encoding a predictor snapshot the
// way an exact chain does at a shard boundary: into an encoder
// pre-sized from the previous payload.
func BenchmarkSnapshotEncode(b *testing.B) {
	sp, prev := snapshotState(b)
	b.SetBytes(int64(len(prev)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Snapshot(snap.NewEncoderSize(len(prev)))
	}
}

// BenchmarkSnapshotDecode measures restoring that snapshot into a
// built predictor, the resume path's decode.
func BenchmarkSnapshotDecode(b *testing.B) {
	_, payload := snapshotState(b)
	fresh := predictor.MustNew("tage-sc-l+imli").(snap.Snapshotter)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fresh.RestoreSnapshot(snap.NewDecoder(payload)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamMaterialization isolates the one-time cost of
// materializing a stream versus generating it through a callback.
func BenchmarkStreamMaterialization(b *testing.B) {
	bench, err := workload.ByName("CLIENT02")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		c := workload.NewStreamCache(0, "")
		if st := c.Get(bench, 40000); st == nil {
			b.Fatal("stream declined")
		}
	}
}

// BenchmarkRunItem measures the per-item cost a worker pays when no
// resident stream serves its items: a 2K-record gshare item through
// Engine.RunItem, where set-up (name checks, benchmark lookup, the
// pooled predictor's reset) comes on top of generating the records
// straight into the predictor. Iterations walk the cbp4 traces at
// budgets 2000..2999, so each trace's budgets only ascend and the
// stream cache declines every request; the cache is kept small so the
// benchmark's memory stays bounded.
func BenchmarkRunItem(b *testing.B) {
	e := sim.NewEngine(sim.EngineConfig{Workers: 1, StreamMemory: 16 << 20})
	benches := workload.CBP4()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench := benches[i%len(benches)]
		item := sim.ItemSpec{Config: "gshare", Suite: "cbp4", Bench: bench.Name, Seed: bench.Seed,
			Budget: 2000 + (i/len(benches))%1000, Shards: 1, Warmup: sim.DefaultShardWarmup}
		if _, err := e.RunItem(ctx, item); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunItemResident measures the per-item cost of a fleet
// worker's steady state: the same items as BenchmarkRunItem, but in
// jobs at budgets 2000..2099 taken out of order, once each cbp4
// trace's stream is resident at 2099, so every item is served from it
// and generates nothing.
func BenchmarkRunItemResident(b *testing.B) {
	e := sim.NewEngine(sim.EngineConfig{Workers: 1, StreamMemory: 16 << 20})
	benches := workload.CBP4()
	ctx := context.Background()
	item := func(bench workload.Benchmark, budget int) sim.ItemSpec {
		return sim.ItemSpec{Config: "gshare", Suite: "cbp4", Bench: bench.Name, Seed: bench.Seed,
			Budget: budget, Shards: 1, Warmup: sim.DefaultShardWarmup}
	}
	// A trace's second request materializes its stream at the longest
	// budget asked so far.
	for _, budget := range []int{2099, 2098} {
		for _, bench := range benches {
			if _, err := e.RunItem(ctx, item(bench, budget)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Job i/40 asks for every trace at one budget; stride 37 over
		// the 100 budgets visits them all out of order.
		job := i / len(benches)
		if _, err := e.RunItem(ctx, item(benches[i%len(benches)], 2000+job*37%100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkItemSpecValidate measures the name and geometry check a
// worker runs on every leased item.
func BenchmarkItemSpecValidate(b *testing.B) {
	item := sim.ItemSpec{Config: "gshare", Suite: "cbp4", Bench: "SPEC2K6-00", Budget: 2000, Shards: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := item.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIMLIComponentsOnly isolates the per-branch cost the IMLI
// mechanism adds (counter + SIC + OH bookkeeping).
func BenchmarkIMLIComponentsOnly(b *testing.B) {
	c := imli.NewIMLICounter()
	sic := imli.NewSIC(c)
	oh := imli.NewOH(c)
	ctx := neural.Ctx{PC: 0x2000}
	for i := 0; i < b.N; i++ {
		_ = sic.Vote(ctx)
		_ = oh.Vote(ctx)
		oh.UpdateHistory(ctx.PC, i%3 != 0)
		c.Observe(0x1000, 0x0f00, i%8 != 7)
	}
}
