package workload

import (
	"sync"
	"testing"

	"repro/internal/num"
	"repro/internal/trace"
)

func mustBench(t *testing.T, name string) Benchmark {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStreamMatchesGenerate(t *testing.T) {
	b := mustBench(t, "SPEC2K6-12")
	const budget = 5000
	var direct []trace.Record
	b.Generate(budget, func(r trace.Record) { direct = append(direct, r) })

	c := NewStreamCache(0, "")
	st := c.Get(b, budget)
	if st == nil {
		t.Fatal("stream not materialized")
	}
	if st.Name() != b.Name {
		t.Errorf("stream name = %q", st.Name())
	}
	recs := st.Records()
	if len(recs) != len(direct) {
		t.Fatalf("stream has %d records, direct generation %d", len(recs), len(direct))
	}
	for i := range direct {
		if recs[i] != direct[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, recs[i], direct[i])
		}
	}
	if len(recs) < budget {
		t.Errorf("stream shorter than budget: %d < %d", len(recs), budget)
	}
}

func TestStreamGeneratedOnce(t *testing.T) {
	b := mustBench(t, "MM-4")
	c := NewStreamCache(0, "")
	first := c.Get(b, 2000)
	for i := 0; i < 5; i++ {
		if got := c.Get(b, 2000); got != first {
			t.Fatal("repeated Get returned a different stream")
		}
	}
	st := c.Stats()
	if st.Generated != 1 {
		t.Errorf("Generated = %d, want 1", st.Generated)
	}
	if st.Hits != 5 {
		t.Errorf("Hits = %d, want 5", st.Hits)
	}
}

func TestStreamConcurrentGetSingleGeneration(t *testing.T) {
	b := mustBench(t, "CLIENT02")
	c := NewStreamCache(0, "")
	const goroutines = 16
	streams := make([]*Stream, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = c.Get(b, 3000)
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if streams[i] != streams[0] {
			t.Fatal("concurrent Gets returned different streams")
		}
	}
	if g := c.Stats().Generated; g != 1 {
		t.Errorf("Generated = %d under concurrency, want 1", g)
	}
}

func TestStreamDistinctBudgetsAreDistinctStreams(t *testing.T) {
	b := mustBench(t, "MM-4")
	c := NewStreamCache(0, "")
	small := c.Get(b, 1000)
	big := c.Get(b, 2000)
	if small == big {
		t.Fatal("different budgets shared a stream")
	}
	// The deterministic stream is prefix-stable: the small stream must
	// be a prefix of the big one (DESIGN.md §2), which is what lets
	// shards share one materialization.
	for i := range small.Records()[:1000] {
		if small.Records()[i] != big.Records()[i] {
			t.Fatalf("record %d not prefix-stable", i)
		}
	}
	if g := c.Stats().Generated; g != 2 {
		t.Errorf("Generated = %d, want 2", g)
	}
}

func TestStreamLRUBound(t *testing.T) {
	b1 := mustBench(t, "MM-4")
	b2 := mustBench(t, "MM-5")
	// Budget 1000 → ~24KB per stream; bound fits one stream only.
	c := NewStreamCache(40<<10, "")
	c.Get(b1, 1000)
	c.Get(b2, 1000) // evicts b1
	st := c.Stats()
	if st.ResidentStreams != 1 {
		t.Errorf("resident streams = %d, want 1 under the bound", st.ResidentStreams)
	}
	if st.ResidentBytes > 40<<10 {
		t.Errorf("resident bytes = %d exceeds the 40KiB bound", st.ResidentBytes)
	}
	c.Get(b1, 1000) // must regenerate
	if g := c.Stats().Generated; g != 3 {
		t.Errorf("Generated = %d after eviction round-trip, want 3", g)
	}
}

func TestStreamTooLargeDeclined(t *testing.T) {
	b := mustBench(t, "MM-4")
	c := NewStreamCache(1<<10, "") // 1KiB: nothing fits
	if st := c.Get(b, 100000); st != nil {
		t.Error("oversized stream materialized instead of declined")
	}
	if g := c.Stats().Generated; g != 0 {
		t.Errorf("Generated = %d for a declined stream, want 0", g)
	}
}

// bigEpisodeKernel emits a fixed 1000-record episode, forcing
// generation to overshoot the budget far past the admission estimate's
// 64-record slack. (Real kernels overshoot by well under 64 records,
// so this path needs a synthetic workload to exercise.)
type bigEpisodeKernel struct{ s site }

func (k *bigEpisodeKernel) episode(e *emitter) {
	for i := 0; i < 1000; i++ {
		e.cond(k.s, i%2 == 0)
	}
}

func TestStreamOvershootNotKeptResidentPastBound(t *testing.T) {
	b := Benchmark{Name: "big-episode", Suite: "test", Seed: 1,
		parts: []part{{weight: 1, mk: func(rng *num.Rand, alloc *siteAlloc) kernel {
			return &bigEpisodeKernel{s: alloc.fwd()}
		}}}}
	const budget = 100
	maxBytes := int64(budget+64) * recordBytes // admits the estimate, not the reality
	c := NewStreamCache(maxBytes, "")
	st := c.Get(b, budget)
	if st == nil {
		t.Fatal("stream declined despite passing the estimate")
	}
	if len(st.Records()) <= budget+64 {
		t.Fatalf("synthetic kernel did not overshoot: %d records", len(st.Records()))
	}
	// The oversized stream is handed out but must not stay resident:
	// the memory bound is a promise.
	if got := c.Stats(); got.ResidentBytes > maxBytes {
		t.Errorf("resident bytes %d exceed bound %d after oversized materialization",
			got.ResidentBytes, maxBytes)
	}
}
