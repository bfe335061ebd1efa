package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSeedSweepDeterminism: the same seed list run in two fresh
// runners yields bit-identical per-seed results — the property that
// makes sweep statistics reproducible and the result store reusable
// across processes.
func TestSeedSweepDeterminism(t *testing.T) {
	params := Params{Budget: 2000, Seeds: []int64{0, 1}}
	a := NewRunner(params).SuiteSweep("gshare", "cbp4")
	b := NewRunner(params).SuiteSweep("gshare", "cbp4")
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("sweep lengths = %d, %d, want 2", len(a), len(b))
	}
	for s := range a {
		for i := range a[s].Results {
			if a[s].Results[i] != b[s].Results[i] {
				t.Errorf("seed %d, %s: %+v != %+v",
					s, a[s].Results[i].Trace, a[s].Results[i], b[s].Results[i])
			}
		}
	}
	// The seed dimension must actually vary the streams: variant 1 is a
	// different stream instance, not a relabeled copy of variant 0.
	same := true
	for i := range a[0].Results {
		if a[0].Results[i].Mispredicted != a[1].Results[i].Mispredicted {
			same = false
			break
		}
	}
	if same {
		t.Error("seed variants 0 and 1 produced identical results on every trace")
	}
}

// TestSeedSweepExactShards: seed variants run through exact sharding
// match the unsharded runs bit for bit — the sweep rides the
// boundary-snapshot chaining unchanged because the seed is part of
// every store key.
func TestSeedSweepExactShards(t *testing.T) {
	seeds := []int64{0, 1}
	plain := NewRunner(Params{Budget: 2000, Seeds: seeds}).SuiteSweep("gshare", "cbp4")
	sharded := NewRunner(Params{
		Budget: 2000, Seeds: seeds,
		Engine: sim.NewEngine(sim.EngineConfig{Shards: 3, ExactShards: true, Store: sim.OpenStore(t.TempDir())}),
	}).SuiteSweep("gshare", "cbp4")
	for s := range plain {
		for i := range plain[s].Results {
			if plain[s].Results[i] != sharded[s].Results[i] {
				t.Errorf("seed %d, %s: sharded %+v != unsharded %+v",
					s, plain[s].Results[i].Trace, sharded[s].Results[i], plain[s].Results[i])
			}
		}
	}
}

// TestSuiteSeededSharesBaseCache: seed 0 is exactly Suite — the same
// in-memory cache entry, so a sweep containing 0 costs nothing extra
// for experiments that already ran the base seed.
func TestSuiteSeededSharesBaseCache(t *testing.T) {
	r := NewRunner(Params{Budget: 2000})
	base := r.Suite("bimodal", "cbp4")
	seeded := r.SuiteSeeded("bimodal", "cbp4", 0)
	if &base.Results[0] != &seeded.Results[0] {
		t.Error("SuiteSeeded(…, 0) did not reuse the Suite cache entry")
	}
}

func TestRunnerSeedsDefault(t *testing.T) {
	r := NewRunner(Params{Budget: 1000})
	if s := r.Seeds(); len(s) != 1 || s[0] != 0 {
		t.Errorf("default Seeds() = %v, want [0]", s)
	}
	r = NewRunner(Params{Budget: 1000, Seeds: []int64{4, 2}})
	if s := r.Seeds(); len(s) != 2 || s[0] != 4 || s[1] != 2 {
		t.Errorf("Seeds() = %v, want [4 2] in configured order", s)
	}
}

func TestCheckSeeds(t *testing.T) {
	if err := CheckSeeds(nil); err != nil {
		t.Errorf("nil seed list rejected: %v", err)
	}
	if err := CheckSeeds([]int64{0, 1, 2}); err != nil {
		t.Errorf("distinct seeds rejected: %v", err)
	}
	err := CheckSeeds([]int64{0, 1, 1})
	if err == nil || !strings.Contains(err.Error(), "duplicate seed 1") {
		t.Errorf("duplicate seeds: err = %v", err)
	}
}

func TestNewRunnerRejectsDuplicateSeeds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRunner accepted a duplicated seed list")
		}
	}()
	NewRunner(Params{Budget: 1000, Seeds: []int64{3, 3}})
}

func TestSeedListHelper(t *testing.T) {
	if SeedList(1) != nil || SeedList(0) != nil {
		t.Error("SeedList(n<=1) should be nil (base seed only)")
	}
	got := SeedList(3)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("SeedList(3) = %v", got)
	}
}

// TestSeedsExperiment: the seeds experiment renders mean ± CI columns
// and paired-reduction marks, and falls back to a three-seed sweep
// when the runner was not configured for one.
func TestSeedsExperiment(t *testing.T) {
	r := NewRunner(Params{Budget: 1500})
	rep := runSeeds(r)
	if rep.Values["seeds"] != minSweepSeeds {
		t.Errorf("fallback sweep used %v seeds, want %d", rep.Values["seeds"], minSweepSeeds)
	}
	if !strings.Contains(rep.Text, "±") {
		t.Error("report text has no ± columns")
	}
	for _, key := range []string{
		"avg.tage-gsc.cbp4.mean", "avg.tage-gsc.cbp4.ci",
		"avg.tage-gsc+imli.cbp4.mean",
		"paired.tage-gsc+imli.cbp4.mean",
		"paired.tage-gsc+imli.cbp4.lo",
		"paired.tage-gsc+imli.cbp4.hi",
		"paired.tage-sc-l+imli.cbp3.sig",
	} {
		if _, ok := rep.Values[key]; !ok {
			t.Errorf("missing value %q", key)
		}
	}
	// Interval sanity: lo <= mean <= hi on every paired claim.
	for _, v := range []string{"tage-gsc+imli", "tage-sc-l+imli"} {
		for _, s := range []string{"cbp4", "cbp3"} {
			lo := rep.Values["paired."+v+"."+s+".lo"]
			mean := rep.Values["paired."+v+"."+s+".mean"]
			hi := rep.Values["paired."+v+"."+s+".hi"]
			if !(lo <= mean && mean <= hi) {
				t.Errorf("paired %s %s: interval [%v, %v] does not bracket mean %v", v, s, lo, hi, mean)
			}
		}
	}
}
