package main

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"repro/client"
	"repro/internal/journal"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The layer probes run after a traced pass's timed section. They time
// each layer's public functions on the pass's own inputs, replayed
// against fresh instances, so the program under test is never edited.
// Every workload probes every layer, so every per-layer metric is
// measured on every workload: a layer the workload's pass does not use
// still shows what it would cost for this workload's inputs.

const (
	// sampleEvery is the hot-path sampling rate: a traced pass times one
	// predictor record in sampleEvery individually, call by call.
	// Counters (mispredicts, records) cover every record.
	sampleEvery = 64
	// probeTraces is how many of a workload's benchmarks the probes
	// replay, and probeRecords caps each probe stream's budget.
	probeTraces  = 4
	probeRecords = 50000
	// probeResults caps how many of the pass's results the store probe
	// replays.
	probeResults = 1000
)

// probedConfigs are every configuration the workloads run (fleet-jobs'
// gshare is among batchConfigs).
var probedConfigs = append(append(append([]string{}, suiteConfigs...), sweepConfig), batchConfigs...)

// metricName turns a configuration name into a metric-name segment.
func metricName(cfg string) string { return strings.ReplaceAll(cfg, "+", "_") }

// Hot-path call kinds timed by the predictor probe.
const (
	callStage1 = iota
	callStage2
	callStage3
	callTrainTables
	callSpecPush
	callTrackOther
	callPredict
	callTrain
	numCalls
)

var callNames = [numCalls]string{"stage1_ns", "stage2_ns", "stage3_ns", "train_tables_ns",
	"history_push_ns", "track_other_ns", "predict_ns", "train_ns"}

// hotPathTimes accumulates sampled per-call durations.
type hotPathTimes struct {
	ns [numCalls]float64
	n  [numCalls]int
}

func (h *hotPathTimes) add(call int, d time.Duration) {
	h.ns[call] += float64(d)
	h.n[call]++
}

// run feeds recs to a fresh predictor and returns its mispredictions.
// Composites go through the public staged calls Composite.Predict and
// Composite.Train compose (PredictStage1/2/3, TrainTables, SpecPush);
// other predictors through Predict and Train. One record in
// sampleEvery is timed call by call.
func (h *hotPathTimes) run(pr predictor.Predictor, recs []trace.Record) uint64 {
	c, staged := pr.(*predictor.Composite)
	var misp uint64
	for i, r := range recs {
		timed := i%sampleEvery == 0
		if !r.Conditional() {
			if !timed || !staged {
				pr.TrackOther(r.PC, r.Target, r.Kind, r.Taken)
				continue
			}
			t0 := time.Now()
			pr.TrackOther(r.PC, r.Target, r.Kind, r.Taken)
			h.add(callTrackOther, time.Since(t0))
			continue
		}
		var pred bool
		switch {
		case staged && timed:
			t0 := time.Now()
			c.PredictStage1(r.PC)
			t1 := time.Now()
			c.PredictStage2()
			t2 := time.Now()
			pred = c.PredictStage3()
			t3 := time.Now()
			c.TrainTables(r.PC, r.Target, r.Taken)
			t4 := time.Now()
			c.SpecPush(r.PC, r.Target, r.Taken)
			t5 := time.Now()
			h.add(callStage1, t1.Sub(t0))
			h.add(callStage2, t2.Sub(t1))
			h.add(callStage3, t3.Sub(t2))
			h.add(callTrainTables, t4.Sub(t3))
			h.add(callSpecPush, t5.Sub(t4))
		case staged:
			c.PredictStage1(r.PC)
			c.PredictStage2()
			pred = c.PredictStage3()
			c.TrainTables(r.PC, r.Target, r.Taken)
			c.SpecPush(r.PC, r.Target, r.Taken)
		case timed:
			t0 := time.Now()
			pred = pr.Predict(r.PC)
			t1 := time.Now()
			pr.Train(r.PC, r.Target, r.Taken)
			t2 := time.Now()
			h.add(callPredict, t1.Sub(t0))
			h.add(callTrain, t2.Sub(t1))
		default:
			pred = pr.Predict(r.PC)
			pr.Train(r.PC, r.Target, r.Taken)
		}
		if pred != r.Taken {
			misp++
		}
	}
	return misp
}

// feedAll is the simulator's per-record protocol, untimed per call:
// the probe's whole-stream cost per record.
func feedAll(pr predictor.Predictor, recs []trace.Record) uint64 {
	var misp uint64
	for _, r := range recs {
		if !r.Conditional() {
			pr.TrackOther(r.PC, r.Target, r.Kind, r.Taken)
			continue
		}
		if pr.Predict(r.PC) != r.Taken {
			misp++
		}
		pr.Train(r.PC, r.Target, r.Taken)
	}
	return misp
}

// timerOverhead is the median cost of one clock read pair, subtracted
// from every sampled call.
func timerOverhead() float64 {
	ds := make([]float64, 2001)
	for i := range ds {
		t := time.Now()
		ds[i] = float64(time.Since(t))
	}
	return median(ds)
}

// probeInput describes a traced pass to the layer probes.
type probeInput struct {
	// configs are the workload's own predictor configurations.
	configs []string
	// benches and budget are the streams the predictor probe replays.
	benches []workload.Benchmark
	budget  int
	// want are pass results at budget that an unsharded run reproduces
	// exactly; the probe's mispredictions must match them.
	want []sim.Result
	// results are the pass's results, replayed into a fresh store.
	results []sim.Result
	// jobs are the pass's job submissions, replayed into a journal.
	jobs []client.Spec
	// store is the pass's own result store, if it has one; journaled is
	// how many journal appends the pass made.
	store     *sim.Store
	journaled int
	// engines, passTime, meanBudget and lanes size the share estimates.
	engines    []*sim.Engine
	passTime   float64
	meanBudget int
	lanes      int
}

// probe runs every layer probe and sets the per-layer metrics the timed
// section did not.
func (p *pass) probe(in probeInput) error {
	states, err := p.probePredictors(in)
	if err != nil {
		return err
	}
	payloads, err := p.probeSnap(states)
	if err != nil {
		return err
	}
	if err := p.probeStore(in, payloads); err != nil {
		return err
	}
	if err := p.probeJournal(in.jobs); err != nil {
		return err
	}
	p.simLayers(in)
	return nil
}

// probePredictors times stream generation and materialization, then the
// hot path of every probed configuration, over the probe benchmarks. It
// returns the workload's own configurations' predictors at the end of
// the first probe stream.
func (p *pass) probePredictors(in probeInput) (map[string]predictor.Predictor, error) {
	budget := min(in.budget, probeRecords)
	wanted := map[string]sim.Result{}
	if budget == in.budget {
		for _, r := range in.want {
			wanted[r.Predictor+"/"+r.Trace] = r
		}
	}
	var genNS, getNS float64
	var genRecs, getRecs int
	var getMS []float64
	streams := make([][]trace.Record, len(in.benches))
	for i, b := range in.benches {
		n := 0
		t := time.Now()
		b.Generate(budget, func(trace.Record) { n++ })
		genNS += float64(time.Since(t))
		genRecs += n
		t = time.Now()
		st := workload.NewStreamCache(0, "").Get(b, budget)
		d := time.Since(t)
		if st == nil {
			return nil, fmt.Errorf("probe: %s at budget %d does not fit a stream cache", b.Name, budget)
		}
		getMS = append(getMS, ms(d))
		getNS += float64(d)
		streams[i] = st.Records()
		getRecs += len(streams[i])
	}
	p.layer("workload.generate_ns_per_record", genNS/float64(genRecs))
	p.layer("workload.stream_get_ms", median(getMS))
	p.materializeNS = getNS / float64(getRecs)

	overhead := timerOverhead()
	perRecord := map[string]float64{}
	states := map[string]predictor.Predictor{}
	for _, cfg := range probedConfigs {
		var h hotPathTimes
		var misp uint64
		var feedNS float64
		records := 0
		for i, recs := range streams {
			pr := predictor.MustNew(cfg)
			t := time.Now()
			m := feedAll(pr, recs)
			feedNS += float64(time.Since(t))
			records += len(recs)
			if i == 0 {
				states[cfg] = pr
			}
			if w, ok := wanted[cfg+"/"+in.benches[i].Name]; ok && w.Mispredicted != m {
				p.problem("probe %s/%s: %d mispredicts, the pass measured %d", cfg, in.benches[i].Name, m, w.Mispredicted)
			}
			if sm := h.run(predictor.MustNew(cfg), recs); sm != m {
				p.problem("probe %s/%s: staged calls mispredict %d, Predict/Train %d", cfg, in.benches[i].Name, sm, m)
			}
			misp += m
		}
		name := "predictor." + metricName(cfg) + "."
		p.layer(name+"mispredicts", float64(misp))
		for call := 0; call < numCalls; call++ {
			if h.n[call] > 0 {
				p.layer(name+callNames[call], max(0, h.ns[call]/float64(h.n[call])-overhead))
			}
		}
		perRecord[cfg] = feedNS / float64(records)
	}
	own := map[string]predictor.Predictor{}
	total := 0.0
	for _, cfg := range in.configs {
		own[cfg] = states[cfg]
		total += perRecord[cfg]
	}
	p.layer("predictor.ns_per_record", total/float64(len(in.configs)))
	return own, nil
}

// probeSnap snapshots each of the workload's predictors and restores the
// snapshot into a fresh instance of the same configuration, five times
// each, and returns one payload per configuration.
func (p *pass) probeSnap(states map[string]predictor.Predictor) (map[string][]byte, error) {
	var enc, dec, size []float64
	payloads := map[string][]byte{}
	for cfg, pr := range states {
		sp, ok := pr.(snap.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("snap probe: %s is not a snapshotter", cfg)
		}
		for rep := 0; rep < 5; rep++ {
			e := snap.NewEncoder()
			t := time.Now()
			sp.Snapshot(e)
			enc = append(enc, ms(time.Since(t)))
			fresh, ok := predictor.MustNew(cfg).(snap.Snapshotter)
			if !ok {
				return nil, fmt.Errorf("snap probe: %s is not a snapshotter", cfg)
			}
			t = time.Now()
			err := fresh.RestoreSnapshot(snap.NewDecoder(e.Bytes()))
			dec = append(dec, ms(time.Since(t)))
			if err != nil {
				return nil, fmt.Errorf("snap probe: %s: %w", cfg, err)
			}
			size = append(size, float64(e.Len()))
			payloads[cfg] = e.Bytes()
		}
	}
	p.layer("snap.encode_ms", median(enc))
	p.layer("snap.decode_ms", median(dec))
	p.layer("snap.bytes", median(size))
	return payloads, nil
}

// probeStore saves the pass's results (at most probeResults) and the
// snap probe's payloads into a fresh store and loads them back. The
// written bytes are the pass's own store's when it has one.
func (p *pass) probeStore(in probeInput, payloads map[string][]byte) error {
	dir := filepath.Join(p.Dir, "probe-store")
	st := sim.OpenStore(dir)
	var load, save, positions, loadSnap, saveSnap []float64
	timed := func(into *[]float64, f func() error) error {
		t := time.Now()
		err := f()
		*into = append(*into, ms(time.Since(t)))
		return err
	}
	results := in.results[:min(len(in.results), probeResults)]
	keys := make([]sim.Key, len(results))
	for i, r := range results {
		keys[i] = sim.Key{Engine: sim.EngineVersion, Config: r.Predictor, Suite: p.Workload, Trace: r.Trace, Shard: i}
		if err := timed(&save, func() error { return st.Save(keys[i], r) }); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
	}
	for i, k := range keys {
		if err := timed(&load, func() error {
			if got, ok := st.Load(k); !ok || got != results[i] {
				return fmt.Errorf("store probe: result %d did not load back", i)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for cfg, payload := range payloads {
		g := sim.SnapKey{Engine: sim.EngineVersion, Config: cfg, Suite: p.Workload, Trace: "probe"}
		for pos := 1; pos <= 4; pos++ {
			k := g
			k.Pos = pos * len(payload)
			if err := timed(&saveSnap, func() error { return st.SaveSnapshot(k, payload) }); err != nil {
				return fmt.Errorf("store probe: %w", err)
			}
		}
		var at []int
		_ = timed(&positions, func() error { at = st.SnapshotPositions(g); return nil })
		for _, pos := range at {
			k := g
			k.Pos = pos
			if err := timed(&loadSnap, func() error {
				if _, ok := st.LoadSnapshot(k); !ok {
					return fmt.Errorf("store probe: snapshot %s@%d did not load back", cfg, pos)
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	p.layer("store.load_ms_p50", median(load))
	p.layer("store.save_ms_p50", median(save))
	p.layer("store.snapshot_positions_ms_p50", median(positions))
	p.layer("store.load_snapshot_ms_p50", median(loadSnap))
	p.layer("store.save_snapshot_ms_p50", median(saveSnap))
	if in.store != nil {
		dir = in.store.Dir()
	}
	bytes, snaps := du(dir)
	p.layer("store.bytes_written", bytes)
	if in.store != nil {
		p.snapFiles = snaps
	}
	return nil
}

// du returns the bytes under dir and how many of its files are
// snapshots.
func du(dir string) (bytes, snaps float64) {
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			bytes += float64(info.Size())
		}
		if strings.HasSuffix(path, ".snap") {
			snaps++
		}
		return nil
	})
	return bytes, snaps
}

// probeJournal replays the pass's job lifecycle — accepted, started,
// done per job, as serve.Server journals it — against a fresh fsynced
// journal, timing each Append.
func (p *pass) probeJournal(jobs []client.Spec) error {
	j, err := journal.Open(filepath.Join(p.Dir, "probe.journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	var d []float64
	for i, s := range jobs {
		id := fmt.Sprintf("j%d", i+1)
		for _, e := range []journal.Entry{
			{Kind: journal.KindAccepted, ID: id, Spec: s},
			{Kind: journal.KindStarted, ID: id},
			{Kind: journal.KindDone, ID: id},
		} {
			t := time.Now()
			if err := j.Append(e); err != nil {
				return fmt.Errorf("journal probe: %w", err)
			}
			d = append(d, ms(time.Since(t)))
		}
	}
	p.layer("journal.append_ms_p50", median(d))
	p.layer("journal.append_ms_p99", percentile(d, 99))
	p.layer("journal.appends", float64(len(d)))
	return nil
}

// probeService sends jobs through the service stack built on the
// workload's engine configuration and sets the serve, dist and client
// metrics from its own spans. The fleet-jobs pass measures those layers
// directly; the local workloads use this probe.
func (p *pass) probeService(eng sim.EngineConfig, jobs []client.Spec) error {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	dir := filepath.Join(p.Dir, "service")
	if eng.Store != nil {
		eng.Store = sim.OpenStore(filepath.Join(dir, "store"))
	}
	s, err := startService(ctx, newTracer(p.Workload), dir, eng)
	if err != nil {
		return err
	}
	defer s.close()
	out := s.run(ctx, 0, jobs, 1)
	if err := s.close(); err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	for _, j := range out {
		if j.err != nil {
			return fmt.Errorf("service probe: %w", j.err)
		}
	}
	s.layers(p, out)
	return nil
}

// simLayers sets the engine counters, the item timings and each
// layer's share of the pass: the layer's time divided by lanes ×
// passTime, the time the pass's worker lanes had. Generation,
// predictor, snapshot, store and journal time are estimates — the
// pass's own counts times the probes' per-call costs; sim is the
// measured item time left after them; wire is measured by the fleet.
func (p *pass) simLayers(in probeInput) {
	c := p.rep.Sim
	var generated, hits uint64
	for _, e := range in.engines {
		if sc := e.Streams(); sc != nil {
			st := sc.Stats()
			generated += st.Generated
			hits += st.Hits
		}
	}
	p.layer("workload.streams_generated", float64(generated))
	if generated+hits > 0 {
		p.layer("workload.stream_hit_ratio", float64(hits)/float64(generated+hits))
	}
	p.layer("sim.records_simulated", float64(c.RecordsSimulated))
	p.layer("sim.items_simulated", float64(c.ItemsSimulated))
	p.layer("sim.cache_hits", float64(c.CacheHits))
	p.layer("sim.resumed", float64(c.Resumed))
	busy := p.tr.durations("sim.item")
	p.layer("sim.item_busy_ms_p50", median(busy))
	p.layer("sim.item_busy_ms_max", maxOf(busy))
	laneMS := float64(in.lanes) * in.passTime * 1e3
	p.layer("sim.idle_ratio", 1-sum(busy)/laneMS)
	if c.RecordsSimulated > 0 {
		p.layer("sim.useful_ratio", float64(p.rep.Records)/float64(c.RecordsSimulated))
	}

	l := p.layers
	generation := float64(generated) * float64(in.meanBudget) * p.materializeNS / 1e6
	predict := float64(c.RecordsSimulated) * l["predictor.ns_per_record"] / 1e6
	codec := p.snapFiles*l["snap.encode_ms"] + float64(c.Resumed)*l["snap.decode_ms"]
	store := 0.0
	if in.store != nil {
		store = float64(c.ItemsSimulated+c.CacheHits)*l["store.load_ms_p50"] +
			float64(c.ItemsSimulated)*l["store.save_ms_p50"] + p.snapFiles*l["store.save_snapshot_ms_p50"]
	}
	p.layer("share.workload", generation/laneMS)
	p.layer("share.predictor", predict/laneMS)
	p.layer("share.snap", codec/laneMS)
	p.layer("share.store", store/laneMS)
	p.layer("share.journal", float64(in.journaled)*l["journal.append_ms_p50"]/laneMS)
	p.layer("share.sim", max(0, sum(busy)-generation-predict-codec-store)/laneMS)
}
