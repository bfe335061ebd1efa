package workload

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

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
	// A stream at budget 1000 is accounted at its 1000+64-record
	// buffer; a bound of one and a half such streams fits one only.
	const budget = 1000
	bound := (budget + 64) * recordBytes * 3 / 2
	c := NewStreamCache(bound, "")
	c.Get(b1, budget)
	c.Get(b2, budget) // evicts b1
	st := c.Stats()
	if st.ResidentStreams != 1 {
		t.Errorf("resident streams = %d, want 1 under the bound", st.ResidentStreams)
	}
	if st.ResidentBytes > bound {
		t.Errorf("resident bytes = %d exceed the %d-byte bound", st.ResidentBytes, bound)
	}
	c.Get(b1, budget) // must regenerate
	if g := c.Stats().Generated; g != 3 {
		t.Errorf("Generated = %d after eviction round-trip, want 3", g)
	}
}

// TestStreamRecordLayout pins recordBytes, the resident accounting, to
// the packed record's real size.
func TestStreamRecordLayout(t *testing.T) {
	if got := int64(unsafe.Sizeof(record{})); got != recordBytes {
		t.Fatalf("a resident record takes %d bytes, accounted at %d", got, recordBytes)
	}
}

// wideKernel emits ordinary conditional branches, then one at a site
// whose PC or target needs more than 32 bits. gate, when set, runs at
// the start of every episode.
type wideKernel struct {
	narrow, wide site
	gate         func()
}

func (k *wideKernel) episode(e *emitter) {
	if k.gate != nil {
		k.gate()
	}
	for i := 0; i < 10; i++ {
		e.cond(k.narrow, i%2 == 0)
	}
	e.cond(k.wide, true)
}

// wideBench is a benchmark of one wideKernel whose wide site is w.
func wideBench(w site, gate func()) Benchmark {
	return Benchmark{Name: "wide-address", Suite: "test", Seed: 1,
		parts: []part{{weight: 1, mk: func(rng *num.Rand, alloc *siteAlloc) kernel {
			return &wideKernel{narrow: alloc.fwd(), wide: w, gate: gate}
		}}}}
}

// TestStreamWideAddressDeclined: a stream with a PC or target that
// needs more than 32 bits is declined, not truncated. Get and both
// GetAdmitted requests return nil, nothing stays resident or counts as
// generated, and no entry is left for a later request to wait on.
func TestStreamWideAddressDeclined(t *testing.T) {
	for _, tc := range []struct {
		name string
		wide site
	}{
		{"pc", site{pc: 1 << 32, target: 1<<32 + 64, kind: trace.CondDirect}},
		{"target", site{pc: 0x400000, target: 1 << 32, kind: trace.CondDirect}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := wideBench(tc.wide, nil)
			c := NewStreamCache(0, "")
			if c.GetAdmitted(b, 2000) != nil {
				t.Error("first admitted request returned a stream")
			}
			if c.GetAdmitted(b, 2000) != nil {
				t.Error("second admitted request returned a stream")
			}
			if c.Get(b, 2000) != nil {
				t.Error("Get returned a stream")
			}
			if st := c.Stats(); st.Generated != 0 || st.ResidentStreams != 0 || st.ResidentBytes != 0 {
				t.Errorf("after declines: Generated %d, %d streams and %d bytes resident; want all 0",
					st.Generated, st.ResidentStreams, st.ResidentBytes)
			}
			if n := len(c.entries); n != 0 {
				t.Errorf("%d entries left after declines, want 0", n)
			}
		})
	}
}

// TestStreamWideAddressDeclinedToWaiters: callers that arrive while the
// first Get generates a wide stream wait on it and get nil too, and a
// later Get of the key does not block.
func TestStreamWideAddressDeclinedToWaiters(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gate := func() {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	b := wideBench(site{pc: 0x400000, target: 1 << 32, kind: trace.CondDirect}, gate)
	c := NewStreamCache(0, "")
	const waiters = 8
	results := make([]*Stream, waiters+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = c.Get(b, 2000)
	}()
	<-started
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				results[i] = c.Get(b, 2000)
			} else {
				results[i] = c.GetAdmitted(b, 2000)
			}
		}(i)
	}
	// Every waiter counts a hit when it finds the in-flight entry.
	for c.Stats().Hits < waiters {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i, st := range results {
		if st != nil {
			t.Errorf("caller %d got a stream", i)
		}
	}
	if st := c.Stats(); st.Generated != 0 || st.ResidentStreams != 0 || st.ResidentBytes != 0 {
		t.Errorf("after the decline: Generated %d, %d streams and %d bytes resident; want all 0",
			st.Generated, st.ResidentStreams, st.ResidentBytes)
	}
	if c.Get(b, 2000) != nil {
		t.Error("a later Get returned a stream")
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

// TestStreamAdmittedOnSecondRequest pins the single-reader admission
// rule: a key's first GetAdmitted materializes nothing, the second
// materializes it once, and later requests hit it.
func TestStreamAdmittedOnSecondRequest(t *testing.T) {
	b := mustBench(t, "MM-4")
	c := NewStreamCache(0, "")
	if st := c.GetAdmitted(b, 2000); st != nil {
		t.Fatal("first request materialized the stream")
	}
	if g := c.Stats().Generated; g != 0 {
		t.Fatalf("Generated = %d after a first request, want 0", g)
	}
	second := c.GetAdmitted(b, 2000)
	if second == nil {
		t.Fatal("second request did not materialize the stream")
	}
	if third := c.GetAdmitted(b, 2000); third != second {
		t.Fatal("third request did not return the materialized stream")
	}
	if got := c.Get(b, 2000); got != second {
		t.Fatal("Get did not return the admitted stream")
	}
	if st := c.Stats(); st.Generated != 1 || st.Hits != 2 {
		t.Errorf("Generated = %d, Hits = %d; want 1 and 2", st.Generated, st.Hits)
	}
}

// TestStreamAdmittedConcurrently: of concurrent GetAdmitted calls for
// one key, exactly one is the declined first request, and the rest share
// one materialization.
func TestStreamAdmittedConcurrently(t *testing.T) {
	b := mustBench(t, "CLIENT02")
	c := NewStreamCache(0, "")
	const goroutines = 16
	streams := make([]*Stream, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = c.GetAdmitted(b, 3000)
		}(i)
	}
	wg.Wait()
	declined := 0
	var shared *Stream
	for _, st := range streams {
		switch {
		case st == nil:
			declined++
		case shared == nil:
			shared = st
		case st != shared:
			t.Fatal("concurrent admitted requests returned different streams")
		}
	}
	if declined != 1 {
		t.Errorf("%d of %d concurrent requests declined, want exactly the first", declined, goroutines)
	}
	if g := c.Stats().Generated; g != 1 {
		t.Errorf("Generated = %d under concurrency, want 1", g)
	}
}

// TestStreamSeenSetBounded: the keys GetAdmitted declined stay at the
// seenKeys bound as more arrive, and the oldest is forgotten first.
func TestStreamSeenSetBounded(t *testing.T) {
	b := mustBench(t, "MM-4")
	c := NewStreamCache(0, "")
	const extra = 10
	for budget := 1; budget <= seenKeys+extra; budget++ {
		if c.GetAdmitted(b, budget) != nil {
			t.Fatalf("first request for budget %d materialized", budget)
		}
	}
	if len(c.seen) != seenKeys || len(c.seenOrder) != seenKeys {
		t.Fatalf("seen-set holds %d keys (%d ordered), want the bound %d", len(c.seen), len(c.seenOrder), seenKeys)
	}
	// The first extra keys were forgotten: a repeat is a first request
	// again. The newest is remembered: a repeat materializes it.
	if c.GetAdmitted(b, 1) != nil {
		t.Error("the oldest key was not forgotten")
	}
	if c.GetAdmitted(b, seenKeys+extra) == nil {
		t.Error("the newest key was forgotten")
	}
	if len(c.seen) != seenKeys {
		t.Errorf("seen-set holds %d keys, want the bound %d", len(c.seen), seenKeys)
	}
}
