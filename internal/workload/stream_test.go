package workload

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// generated returns what Generate emits for b at budget.
func generated(b Benchmark, budget int) []trace.Record {
	var out []trace.Record
	b.Generate(budget, func(r trace.Record) { out = append(out, r) })
	return out
}

// checkServed fails unless st is exactly Generate(budget) of b, record
// for record, the overshoot to the next budget check included.
func checkServed(t *testing.T, b Benchmark, budget int, st *Stream) {
	t.Helper()
	if st == nil {
		t.Fatalf("%s at budget %d: no stream served", b.Name, budget)
	}
	want, got := generated(b, budget), st.Records()
	if len(got) != len(want) {
		t.Fatalf("%s at budget %d: served %d records, Generate emits %d", b.Name, budget, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s at budget %d: record %d is %+v, Generate emits %+v", b.Name, budget, i, got[i], want[i])
		}
	}
}

// TestStreamPrefixMatchesGenerate pins the prefix rule the per-trace
// key rests on: one resident stream serves every shorter budget with
// exactly what Generate emits at that budget. Over all 80 benchmarks,
// budget 1, a budget check position and its neighbours, and the
// resident length all come from one longer stream, and nothing is
// generated a second time.
func TestStreamPrefixMatchesGenerate(t *testing.T) {
	const long = 6000
	benches := All()
	c := NewStreamCache(0, "")
	for _, b := range benches {
		full := c.Get(b, long)
		checkServed(t, b, long, full)
		// The first record past the middle that a budget check follows.
		check := long / 2
		for !full.recs[check-1].check {
			check++
		}
		for _, budget := range []int{1, check - 1, check, check + 1, full.Len()} {
			checkServed(t, b, budget, c.Get(b, budget))
		}
	}
	if st := c.Stats(); st.Generated != uint64(len(benches)) {
		t.Errorf("Generated = %d for %d benchmarks, want one stream each", st.Generated, len(benches))
	}
}

// TestStreamAdmissionOrder pins what the admission rule materializes
// for single-reader traffic at distinct budgets: nothing for strictly
// ascending budgets, one stream for descending ones, and for shuffled
// ones at most one stream per request longer than all before it.
func TestStreamAdmissionOrder(t *testing.T) {
	b := mustBench(t, "MM-4")
	budgets := func(order string) []int {
		out := make([]int, 100)
		for i := range out {
			out[i] = 2000 + i
		}
		switch order {
		case "descending":
			slices.Reverse(out)
		case "shuffled":
			rng := num.NewRand(7)
			for i := len(out) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				out[i], out[j] = out[j], out[i]
			}
		}
		return out
	}
	for _, order := range []string{"ascending", "descending", "shuffled"} {
		t.Run(order, func(t *testing.T) {
			c := NewStreamCache(0, "")
			longest, longer := 0, 0
			for _, budget := range budgets(order) {
				if budget > longest {
					longest, longer = budget, longer+1
				}
				if st := c.GetAdmitted(b, budget); st != nil && st.Len() != len(generated(b, budget)) {
					t.Fatalf("budget %d: served %d records, Generate emits %d", budget, st.Len(), len(generated(b, budget)))
				}
			}
			g := c.Stats().Generated
			var ok bool
			switch order {
			case "ascending":
				ok = g == 0
			case "descending":
				ok = g == 1
			case "shuffled":
				ok = g >= 1 && g <= uint64(longer)
			}
			if !ok {
				t.Errorf("materialized %d streams, %d requests longer than all before", g, longer)
			}
		})
	}
}

// TestStreamGetBuildsAtItsOwnBudget: Get generates at its own budget,
// however long a request GetAdmitted declined for the trace was; only
// GetAdmitted materializes at the longest declined budget.
func TestStreamGetBuildsAtItsOwnBudget(t *testing.T) {
	b := mustBench(t, "MM-4")
	c := NewStreamCache(0, "")
	if c.GetAdmitted(b, 20000) != nil {
		t.Fatal("first admitted request materialized the stream")
	}
	checkServed(t, b, 2000, c.Get(b, 2000))
	if st, want := c.Stats(), int64(len(generated(b, 2000))+64)*recordBytes; st.Generated != 1 || st.ResidentBytes > want {
		t.Fatalf("Get at 2000 after a declined 20000: Generated %d, %d bytes resident; want 1 and at most %d",
			st.Generated, st.ResidentBytes, want)
	}
	checkServed(t, b, 10000, c.GetAdmitted(b, 10000))
	checkServed(t, b, 20000, c.Get(b, 20000))
	if g := c.Stats().Generated; g != 2 {
		t.Errorf("Generated = %d, want 2: GetAdmitted within the declined 20000 materializes at it, and Get at 20000 hits", g)
	}
}

// TestStreamAdmittedPastDeclinedSkipsShorterBuild: while a shorter
// generation of the key is in flight, a GetAdmitted request past the
// key's longest declined budget is declined at once instead of waiting
// through that generation, and its budget is recorded as usual.
func TestStreamAdmittedPastDeclinedSkipsShorterBuild(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	gate := func() {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	// With a narrow "wide" site this is an ordinary benchmark, whose
	// first episode blocks until release.
	b := wideBench(site{pc: 0x400100, target: 0x400140, kind: trace.CondDirect}, gate)
	c := NewStreamCache(0, "")
	built := make(chan *Stream, 1)
	go func() { built <- c.Get(b, 2000) }()
	<-started
	declined := make(chan *Stream, 1)
	go func() { declined <- c.GetAdmitted(b, 5000) }()
	select {
	case st := <-declined:
		if st != nil {
			t.Error("a request past the longest declined budget was served")
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("GetAdmitted still waiting on the shorter generation after 5s")
	}
	close(release)
	checkServed(t, b, 2000, <-built)
	// The decline recorded 5000, so a request within it materializes at
	// 5000 and a Get at 5000 hits.
	checkServed(t, b, 4000, c.GetAdmitted(b, 4000))
	checkServed(t, b, 5000, c.Get(b, 5000))
	if g := c.Stats().Generated; g != 2 {
		t.Errorf("Generated = %d, want 2", g)
	}
}

// TestStreamConcurrentMixedBudgets races Get and GetAdmitted at mixed
// budgets on two benchmarks, so requests find streams resident, in
// flight, too short and replaced: every stream served is exactly
// Generate at its own budget.
func TestStreamConcurrentMixedBudgets(t *testing.T) {
	benches := []Benchmark{mustBench(t, "MM-4"), mustBench(t, "CLIENT02")}
	budgets := []int{1, 500, 1999, 2000, 2001, 3000, 4500, 6000}
	want := map[string][]trace.Record{}
	wantKey := func(b Benchmark, budget int) string { return fmt.Sprintf("%s/%d", b.Name, budget) }
	for _, b := range benches {
		for _, budget := range budgets {
			want[wantKey(b, budget)] = generated(b, budget)
		}
	}
	c := NewStreamCache(0, "")
	const goroutines, requests = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := num.NewRand(uint64(g))
			for i := 0; i < requests; i++ {
				b, budget := benches[rng.Intn(len(benches))], budgets[rng.Intn(len(budgets))]
				var st *Stream
				if rng.Bool() {
					st = c.GetAdmitted(b, budget)
					if st == nil {
						continue
					}
				} else if st = c.Get(b, budget); st == nil {
					t.Errorf("Get(%s, %d) declined", b.Name, budget)
					return
				}
				if !slices.Equal(st.Records(), want[wantKey(b, budget)]) {
					t.Errorf("%s at budget %d: served stream differs from Generate", b.Name, budget)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.ResidentStreams > len(benches) {
		t.Errorf("%d streams resident for %d benchmarks, want at most one each", st.ResidentStreams, len(benches))
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
// Keys are per trace and seed, so the distinct keys are seed variants.
func TestStreamSeenSetBounded(t *testing.T) {
	b := mustBench(t, "MM-4")
	const budget, extra = 100, 10
	c := NewStreamCache(0, "")
	for v := int64(1); v <= seenKeys+extra; v++ {
		if c.GetAdmitted(b.Reseeded(v), budget) != nil {
			t.Fatalf("first request for seed variant %d materialized", v)
		}
	}
	if len(c.seen) != seenKeys || len(c.seenOrder) != seenKeys {
		t.Fatalf("seen-set holds %d keys (%d ordered), want the bound %d", len(c.seen), len(c.seenOrder), seenKeys)
	}
	// The first extra keys were forgotten: a repeat is a first request
	// again. The newest is remembered: a repeat materializes it.
	if c.GetAdmitted(b.Reseeded(1), budget) != nil {
		t.Error("the oldest key was not forgotten")
	}
	if c.GetAdmitted(b.Reseeded(seenKeys+extra), budget) == nil {
		t.Error("the newest key was forgotten")
	}
	if len(c.seen) != seenKeys {
		t.Errorf("seen-set holds %d keys, want the bound %d", len(c.seen), seenKeys)
	}
}

// TestStreamHugeBudgetDeclined: a budget whose stream size overflows
// an int64 byte count is declined at once, and leaves nothing a later
// request of the key would wait on.
func TestStreamHugeBudgetDeclined(t *testing.T) {
	b := mustBench(t, "MM-4")
	for _, budget := range []int{math.MaxInt, math.MaxInt - 63, math.MaxInt/int(recordBytes) + 1} {
		c := NewStreamCache(0, "")
		if c.Get(b, budget) != nil || c.GetAdmitted(b, budget) != nil || c.GetAdmitted(b, budget) != nil {
			t.Errorf("budget %d: a stream was served", budget)
		}
		checkServed(t, b, 2000, getWithin(t, c, b, 2000))
	}
}

// getWithin is c.Get(b, budget), failing the test if it blocks for
// more than a few seconds.
func getWithin(t *testing.T, c *StreamCache, b Benchmark, budget int) *Stream {
	t.Helper()
	got := make(chan *Stream, 1)
	go func() { got <- c.Get(b, budget) }()
	select {
	case st := <-got:
		return st
	case <-time.After(5 * time.Second):
		t.Fatalf("Get(%s, %d) still blocked after 5s", b.Name, budget)
		return nil
	}
}

// TestStreamGenerationPanicReleasesEntry: when materialization panics
// (here the buffer for the largest budget the bound admits cannot be
// allocated, or a kernel panics), the panic reaches the generating
// caller, waiters on the key get nil, and a later request generates
// afresh instead of waiting on the dead entry.
func TestStreamGenerationPanicReleasesEntry(t *testing.T) {
	t.Run("allocation", func(t *testing.T) {
		b := mustBench(t, "MM-4")
		c := NewStreamCache(math.MaxInt64, "")
		budget := int(min(math.MaxInt64/recordBytes, math.MaxInt) - 64) // the largest the bound admits
		if !panics(func() { c.Get(b, budget) }) {
			t.Fatal("materializing an unallocatable buffer did not panic")
		}
		checkServed(t, b, 2000, getWithin(t, c, b, 2000))
	})
	t.Run("kernel", func(t *testing.T) {
		started, release := make(chan struct{}), make(chan struct{})
		var armed atomic.Bool
		armed.Store(true)
		gate := func() {
			if armed.Swap(false) {
				close(started)
				<-release
				panic("injected generation failure")
			}
		}
		// With a narrow "wide" site this is an ordinary benchmark, whose
		// first episode blocks and then panics.
		b := wideBench(site{pc: 0x400100, target: 0x400140, kind: trace.CondDirect}, gate)
		c := NewStreamCache(0, "")
		const waiters = 6
		results := make([]*Stream, waiters)
		var panicked atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			panicked.Store(panics(func() { c.Get(b, 2000) }))
		}()
		<-started
		for i := range results {
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
		for c.Stats().Hits < waiters {
			runtime.Gosched()
		}
		close(release)
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("callers still blocked 5s after the generation panicked")
		}
		if !panicked.Load() {
			t.Error("the generating Get did not panic")
		}
		for i, st := range results {
			if st != nil {
				t.Errorf("waiter %d got a stream from a panicked generation", i)
			}
		}
		if st := c.Stats(); st.Generated != 0 || st.ResidentStreams != 0 {
			t.Errorf("after the panic: Generated %d, %d streams resident; want 0 and 0", st.Generated, st.ResidentStreams)
		}
		if st := getWithin(t, c, b, 2000); st == nil || c.Stats().Generated != 1 {
			t.Error("a later Get did not generate the stream afresh")
		}
	})
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
