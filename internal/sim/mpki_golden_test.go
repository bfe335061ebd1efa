package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/predictor"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenBudget keeps the cross-config sweep fast while still
// exercising TAGE allocation, the loop predictor, wormhole, local
// history and the IMLI components.
const goldenBudget = 12000

// goldenBenches picks benchmarks that cover the distinct correlation
// kernels (same-iteration, previous-outer-diagonal, inverted-outer,
// call/return noise) so a history-layer regression in any component
// shifts at least one count.
func goldenBenches(t *testing.T) []workload.Benchmark {
	t.Helper()
	names := []string{"SPEC2K6-04", "SPEC2K6-12", "MM-4", "SERVER-1", "CLIENT02"}
	var out []workload.Benchmark
	for _, n := range names {
		b, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// goldenCount is the exact simulation outcome of one (config, trace)
// pair; integer counts rather than float MPKI so "bit-identical" is
// literal.
type goldenCount struct {
	Config       string `json:"config"`
	Trace        string `json:"trace"`
	Instructions uint64 `json:"instructions"`
	Conditionals uint64 `json:"conditionals"`
	Mispredicted uint64 `json:"mispredicted"`
}

// TestMPKIBitIdentityAllConfigs locks the exact mispredict counts of
// every registry configuration over a quick multi-kernel suite. The
// goldens were captured before the flattened-history-bank refactor
// (hist.FoldedBank, packed hist.Global, hoisted PC hashing); any
// change in predictor arithmetic — however small — fails this test.
// Regenerate deliberately with: go test ./internal/sim -run
// MPKIBitIdentity -update
func TestMPKIBitIdentityAllConfigs(t *testing.T) {
	benches := goldenBenches(t)
	configs := predictor.Names()
	sort.Strings(configs)

	var got []goldenCount
	for _, cfg := range configs {
		run, err := RunSuite(cfg, "golden", benches, goldenBudget)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range run.Results {
			got = append(got, goldenCount{
				Config:       cfg,
				Trace:        r.Trace,
				Instructions: r.Instructions,
				Conditionals: r.Conditionals,
				Mispredicted: r.Mispredicted,
			})
		}
	}

	if writeGoldenIfRequested(t, got) {
		return
	}
	compareGolden(t, got, true)
}

// TestSpecCheckpointedMatchesGolden pins the documented invariant that
// SpecCheckpointed — speculative history pushes at fetch, repaired from
// per-branch checkpoints on mispredictions — is prediction-for-
// prediction identical to SpecImmediate, for every golden composite
// configuration, by checking its counts against the same golden file
// the immediate-update sweep is pinned to. The checkpointed wrappers
// run on an engine, as the spec experiment runs them.
func TestSpecCheckpointedMatchesGolden(t *testing.T) {
	if *updateGolden {
		t.Skip("goldens are written by TestMPKIBitIdentityAllConfigs")
	}
	benches := goldenBenches(t)
	configs := predictor.Names()
	sort.Strings(configs)

	var got []goldenCount
	e := NewEngine(EngineConfig{})
	for _, cfg := range configs {
		if _, ok := predictor.MustNew(cfg).(*predictor.Composite); !ok {
			continue // bimodal/gshare adapters have no speculative hooks
		}
		run := e.RunSuite(specBuilder(cfg, SpecCheckpointed), cfg+"/checkpointed", "golden", benches, goldenBudget)
		for _, res := range run.Results {
			got = append(got, goldenCount{
				Config:       cfg,
				Trace:        res.Trace,
				Instructions: res.Instructions,
				Conditionals: res.Conditionals,
				Mispredicted: res.Mispredicted,
			})
		}
	}
	compareGolden(t, got, false)
}

// writeGoldenIfRequested rewrites the golden file when -update is set,
// reporting whether it did.
func writeGoldenIfRequested(t *testing.T, got []goldenCount) bool {
	t.Helper()
	if !*updateGolden {
		return false
	}
	path := filepath.Join("testdata", "mpki_golden.json")
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s with %d entries", path, len(got))
	return true
}

// compareGolden checks counts against the golden file. When complete
// is set, got must cover every golden entry (the immediate-update
// sweep); otherwise entries absent from got (non-composite configs in
// the spec sweep) are simply not checked, but every got entry must
// match its golden counterpart.
func compareGolden(t *testing.T, got []goldenCount, complete bool) {
	t.Helper()
	path := filepath.Join("testdata", "mpki_golden.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	var want []goldenCount
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantByKey := make(map[[2]string]goldenCount, len(want))
	for _, w := range want {
		wantByKey[[2]string{w.Config, w.Trace}] = w
	}
	if complete && len(got) != len(want) {
		t.Errorf("result count %d, golden has %d", len(got), len(want))
	}
	for _, g := range got {
		w, ok := wantByKey[[2]string{g.Config, g.Trace}]
		if !ok {
			t.Errorf("%s/%s: not in golden file (new config? regenerate with -update)", g.Config, g.Trace)
			continue
		}
		if g != w {
			t.Errorf("%s/%s: counts diverged from pre-refactor golden:\n got  %+v\n want %+v",
				g.Config, g.Trace, g, w)
		}
	}
}
