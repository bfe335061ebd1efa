package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/predictor"
	"repro/internal/sim"
)

func TestRegistry(t *testing.T) {
	wanted := []string{
		"e1", "e2", "fig8", "fig9", "fig10", "fig11", "e7", "e8",
		"fig13", "e10", "table1", "table2", "storage", "record", "e15", "ablation", "spec", "scaling", "localspec", "seeds",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
	}
	for _, id := range wanted {
		if !have[id] {
			t.Errorf("experiment %q missing", id)
		}
	}
	if len(All()) != len(wanted) {
		t.Errorf("experiment count = %d, want %d", len(All()), len(wanted))
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(All()) {
		t.Errorf("Select(all) = %d experiments, %v; want %d", len(all), err, len(All()))
	}
	got, err := Select(" table1 ,e1")
	if err != nil {
		t.Fatalf("Select with spaces: %v", err)
	}
	var ids []string
	for _, e := range got {
		ids = append(ids, e.ID)
	}
	if strings.Join(ids, ",") != "table1,e1" {
		t.Errorf("Select(\" table1 ,e1\") = %v, want [table1 e1] in order", ids)
	}
	if _, err := Select("e1,nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("Select with an unknown ID: err = %v, want it named", err)
	}
}

func TestIDsSorted(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatal("IDs not sorted")
		}
	}
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner(Params{Budget: 3000})
	run1 := r.Suite("bimodal", "cbp4")
	run2 := r.Suite("bimodal", "cbp4")
	if &run1.Results[0] != &run2.Results[0] {
		t.Error("second Suite call did not reuse the cached run")
	}
}

func TestRunnerDiskCacheIncremental(t *testing.T) {
	// A second runner with the same params over the same cache
	// directory must serve every shard from disk and reproduce the
	// experiment verbatim — the property that makes repeated
	// experiment runs and CI incremental. Each runner gets an engine of
	// its own, so its stats count only its own work.
	dir := t.TempDir()
	cfg := sim.EngineConfig{Shards: 2, Store: sim.OpenStore(dir)}

	r1 := NewRunner(Params{Budget: 3000, Engine: sim.NewEngine(cfg)})
	rep1 := runE1(r1)
	st1 := r1.EngineStats()
	if st1.Simulated == 0 || st1.CacheHits != 0 {
		t.Fatalf("first run stats = %+v, want fresh simulation", st1)
	}

	r2 := NewRunner(Params{Budget: 3000, Engine: sim.NewEngine(cfg)})
	rep2 := runE1(r2)
	st2 := r2.EngineStats()
	if st2.Simulated != 0 {
		t.Errorf("second run simulated %d shards, want all %d from cache", st2.Simulated, st1.Simulated)
	}
	if st2.CacheHits != st1.Simulated {
		t.Errorf("second run hit %d cached shards, want %d", st2.CacheHits, st1.Simulated)
	}
	if rep1.Text != rep2.Text {
		t.Error("cached experiment text differs from the fresh run")
	}
	for k, v := range rep1.Values {
		if rep2.Values[k] != v {
			t.Errorf("value %q differs: %v vs %v", k, v, rep2.Values[k])
		}
	}

	// A runner with a different budget over the same directory must
	// not be served stale entries.
	r3 := NewRunner(Params{Budget: 4000, Engine: sim.NewEngine(cfg)})
	runE1(r3)
	if st := r3.EngineStats(); st.CacheHits != 0 {
		t.Errorf("budget change still hit the cache: %+v", st)
	}
}

func TestRunnerProgressReportsCache(t *testing.T) {
	dir := t.TempDir()
	r1 := NewRunner(Params{Budget: 2000, Engine: sim.NewEngine(sim.EngineConfig{Store: sim.OpenStore(dir)})})
	r1.Suite("bimodal", "cbp4")
	var buf strings.Builder
	r2 := NewRunner(Params{Budget: 2000, Engine: sim.NewEngine(sim.EngineConfig{Store: sim.OpenStore(dir)}), Progress: &buf})
	r2.Suite("bimodal", "cbp4")
	if !strings.Contains(buf.String(), "40/40 shards cached") {
		t.Errorf("progress line missing cache accounting: %q", buf.String())
	}
}

// TestProgressColumnsAlign: the suite and MPKI columns of the progress
// lines sit at the same offsets for an 8- and a 26-character
// configuration key.
func TestProgressColumnsAlign(t *testing.T) {
	var buf strings.Builder
	r := NewRunner(Params{Budget: 1000, Progress: &buf})
	r.Suite("tage-gsc", "cbp4")
	r.SuiteWith("tage-gsc+imli/checkpointed", "cbp4", func() predictor.Predictor {
		p, err := sim.NewSpecPredictor("tage-gsc+imli", sim.SpecCheckpointed)
		if err != nil {
			panic(err)
		}
		return p
	})
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("progress = %q, want two lines", buf.String())
	}
	for _, col := range []string{"cbp4:", " MPKI"} {
		if a, b := strings.Index(lines[0], col), strings.Index(lines[1], col); a < 0 || a != b {
			t.Errorf("%q at offsets %d and %d:\n%s", col, a, b, buf.String())
		}
	}
}

func TestSuiteAtBudgetResumes(t *testing.T) {
	// The budget-sweep primitive: ascending SuiteAtBudget calls with
	// the snapshot layer on resume from each other's end snapshots, and
	// the full-budget call lands on the same cache entry as Suite.
	dir := t.TempDir()
	r := NewRunner(Params{Budget: 8000, Engine: sim.NewEngine(sim.EngineConfig{Store: sim.OpenStore(dir), ExactShards: true})})
	r.SuiteAtBudget("gshare", "cbp4", 2000)
	r.SuiteAtBudget("gshare", "cbp4", 4000)
	got := r.SuiteAtBudget("gshare", "cbp4", 8000)
	if st := r.EngineStats(); st.Resumed != 80 {
		t.Errorf("resumed %d shard runs, want 80 (2 budget steps × 40 benchmarks)", st.Resumed)
	}

	cold := NewRunner(Params{Budget: 8000}).Suite("gshare", "cbp4")
	for i := range got.Results {
		if got.Results[i] != cold.Results[i] {
			t.Errorf("%s: resumed sweep result %+v != cold %+v",
				got.Results[i].Trace, got.Results[i], cold.Results[i])
		}
	}

	// The full-budget call must have been served from the same
	// in-memory cache entry Suite uses.
	direct := r.Suite("gshare", "cbp4")
	if &got.Results[0] != &direct.Results[0] {
		t.Error("SuiteAtBudget(full) did not share the Suite cache entry")
	}
}

func TestRunnerDefaultBudget(t *testing.T) {
	r := NewRunner(Params{})
	if r.Params().Budget != DefaultParams().Budget {
		t.Errorf("default budget = %d", r.Params().Budget)
	}
}

// TestSpecExperimentsHonorCancel: spec and localspec run their
// speculative-history wrappers on the runner's engine, so a
// pre-canceled runner simulates no benchmark.
func TestSpecExperimentsHonorCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Params{Budget: 20000, Context: ctx})
	for id, key := range map[string]string{"spec": "immediate.cbp4", "localspec": "ideal.cbp4"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if v := e.Run(r).Values[key]; v != 0 {
			t.Errorf("%s: %s = %v after cancellation, want 0", id, key, v)
		}
	}
	if st := r.EngineStats(); st.Simulated != 0 {
		t.Errorf("a canceled runner simulated %d shards", st.Simulated)
	}
}

// TestSpecExperimentsRunOnEngine: spec and localspec simulate on the
// runner's engine, so a second run over the same result store
// simulates nothing and reports the same values. It is not skipped
// under -short, so the race step runs the wrappers on the engine's
// workers.
func TestSpecExperimentsRunOnEngine(t *testing.T) {
	dir := t.TempDir()
	run := func() (map[string]map[string]float64, sim.EngineStats) {
		r := NewRunner(Params{Budget: 2000, Engine: sim.NewEngine(sim.EngineConfig{Store: sim.OpenStore(dir)})})
		vals := map[string]map[string]float64{}
		for _, id := range []string{"spec", "localspec"} {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			vals[id] = e.Run(r).Values
		}
		return vals, r.EngineStats()
	}
	cold, st := run()
	if st.Simulated == 0 {
		t.Fatalf("spec and localspec simulated nothing on the engine: %+v", st)
	}
	warm, st := run()
	if st.Simulated != 0 {
		t.Errorf("a warm rerun simulated %d shards", st.Simulated)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("a warm rerun reports %v, the cold run %v", warm, cold)
	}
}

func TestStorageExperiment(t *testing.T) {
	// Static accounting; cheap to run at any budget.
	r := NewRunner(Params{Budget: 1000})
	rep := runStorage(r)
	if rep.Values["imli.bytes"] < 690 || rep.Values["imli.bytes"] > 730 {
		t.Errorf("IMLI budget = %v bytes, paper says 708", rep.Values["imli.bytes"])
	}
	if rep.Values["imli.checkpoint.bits"] != 26 {
		t.Errorf("checkpoint = %v bits, want 26", rep.Values["imli.checkpoint.bits"])
	}
	if !strings.Contains(rep.Text, "IMLI-SIC table") {
		t.Error("report text missing the budget table")
	}
	// IMLI configs must not add in-flight window costs.
	if rep.Values["window.tage-gsc+imli"] != 0 {
		t.Error("IMLI config reported an in-flight window cost")
	}
	if rep.Values["window.tage-sc-l"] == 0 {
		t.Error("local config reported no in-flight window cost")
	}
}

// TestHeadlineShapes runs the central experiments at reduced budget and
// asserts the paper's qualitative results (who wins, where).
func TestHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(Params{Budget: 50000})

	// E1/Fig8 shape: IMLI improves both suites on both bases.
	fig8 := runFig8(r)
	for _, s := range []string{"cbp4", "cbp3"} {
		base := fig8.Values["base."+s]
		sic := fig8.Values["sic."+s]
		imliV := fig8.Values["imli."+s]
		if !(imliV < sic && sic < base) {
			t.Errorf("TAGE-GSC %s: want imli < sic < base, got %.3f / %.3f / %.3f",
				s, imliV, sic, base)
		}
		// Paper: ~6-7% total reduction; accept a broad band.
		red := (base - imliV) / base
		if red < 0.02 || red > 0.45 {
			t.Errorf("TAGE-GSC %s: IMLI reduction %.1f%% outside plausible band", s, red*100)
		}
	}

	// Fig9 concentration: the named paper benchmarks dominate the top-15.
	fig9 := runFig9(r)
	for _, tr := range []string{"SPEC2K6-12", "CLIENT02", "MM07", "SPEC2K6-04", "WS04"} {
		if _, ok := fig9.Values["red."+tr]; !ok {
			t.Errorf("%s missing from the top-15 IMLI benefit list", tr)
		}
	}

	// E2: WH helps the wormhole benchmarks on the base...
	e2 := runE2(r)
	for _, tr := range []string{"SPEC2K6-12", "CLIENT02", "MM07"} {
		if red, ok := e2.Values["tage-gsc+wh.reduction."+tr]; !ok || red <= 0 {
			t.Errorf("WH did not benefit %s (red=%v ok=%v)", tr, red, ok)
		}
	}

	// E10: delayed OH update is nearly free.
	e10 := runE10(r)
	for _, s := range []string{"cbp4", "cbp3"} {
		loss := e10.Values["loss."+s]
		if loss > 0.05 || loss < -0.05 {
			t.Errorf("delayed OH update loss on %s = %.4f MPKI, want ~0", s, loss)
		}
	}

	// Table1 shape: +I+L best; +L benefit shrinks when IMLI present.
	t1 := runTable1(r)
	for _, s := range []string{"cbp4", "cbp3"} {
		if !(t1.Values["+I+L."+s] < t1.Values["Base."+s]) {
			t.Errorf("Table1 %s: +I+L (%.3f) not better than Base (%.3f)",
				s, t1.Values["+I+L."+s], t1.Values["Base."+s])
		}
		if !(t1.Values["lbenefit.imli."+s] < t1.Values["lbenefit.noimli."+s]) {
			t.Errorf("Table1 %s: local benefit did not shrink with IMLI (%.3f vs %.3f)",
				s, t1.Values["lbenefit.imli."+s], t1.Values["lbenefit.noimli."+s])
		}
	}

	// Record: TAGE-SC-L+IMLI beats TAGE-SC-L.
	rec := runRecord(r)
	for _, s := range []string{"cbp4", "cbp3"} {
		if !(rec.Values["record."+s] < rec.Values["tage-sc-l."+s]) {
			t.Errorf("record %s: %.3f not below TAGE-SC-L %.3f",
				s, rec.Values["record."+s], rec.Values["tage-sc-l."+s])
		}
	}
}

func TestMPKIByTrace(t *testing.T) {
	r := NewRunner(Params{Budget: 3000})
	run := r.Suite("bimodal", "cbp4")
	m := MPKIByTrace(run)
	if len(m) != 40 {
		t.Errorf("MPKIByTrace has %d entries", len(m))
	}
	for _, name := range r.TraceNames("cbp4") {
		if _, ok := m[name]; !ok {
			t.Errorf("missing trace %s", name)
		}
	}
}
