package workload

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/trace"
)

// This file is the materialized-stream layer (DESIGN.md §6): each
// benchmark's deterministic record stream is generated **once** per
// (trace name, seed) into a compact in-memory buffer of 12-byte
// records and handed out as read-only Streams, so the simulation
// engine's shards — and every configuration and budget of a batch run
// sharing the cache — stop paying O(shards × budget) regeneration
// work. Generate(b) is a prefix of Generate(B) for b ≤ B, so one
// resident stream serves every budget up to its length. A caller that
// reads a stream once asks through GetAdmitted, which materializes it
// only from its key's second request.

// DefaultStreamMemory is the resident-byte bound a zero-configured
// StreamCache uses. At 12 bytes per record it holds 89 full-size
// (250K-record) benchmark streams.
const DefaultStreamMemory = 256 << 20

// record is one resident trace.Record with its addresses narrowed to
// 32 bits: every synthetic benchmark's PCs and targets fit, so a
// record takes half of trace.Record's 24 bytes. A stream with a wider
// address is declined, never truncated (see materialize).
type record struct {
	pc, target uint32
	kind       trace.Kind
	taken      bool
	gap        uint8
	// check marks a record after which generation checked its budget:
	// Generate at any budget that reaches this record stops here if
	// the budget is spent (see prefix).
	check bool
}

// recordBytes is the accounting cost of one resident record: two
// uint32 addresses plus kind, taken, gap and the check flag. A test
// pins it to the record layout.
const recordBytes = int64(12)

// seenKeys bounds how many keys GetAdmitted remembers a declined
// request for. A key's second reader must arrive within this many
// other single-reader keys to find it remembered; keys are per trace
// and seed, so an engine's suite run asks for one key per benchmark
// (a full cbp4+cbp3 run is 80), whatever its budgets. At ~100 bytes a
// key the set stays under half a MiB.
const seenKeys = 4096

// Stream is the materialized record stream of one benchmark at one
// budget: exactly the records Generate emits at that budget. It may
// run a few records past the budget: generation stops at its next
// budget check (see Generate), and the overshoot is part of the
// deterministic stream an unsharded run measures. A Stream is
// read-only and safe for concurrent readers.
type Stream struct {
	name string
	recs []record
}

// Name returns the benchmark name the stream was generated from.
func (s *Stream) Name() string { return s.name }

// Len returns the number of records in the stream.
func (s *Stream) Len() int { return len(s.recs) }

// At returns record i of the stream, exactly as Generate emitted it.
func (s *Stream) At(i int) trace.Record {
	r := &s.recs[i]
	return trace.Record{PC: uint64(r.pc), Target: uint64(r.target), Kind: r.kind, Taken: r.taken, InstrGap: r.gap}
}

// Records returns a decoded copy of the whole stream, at trace.Record's
// full 24 bytes a record. Readers that walk the stream use Len and At,
// which allocate nothing.
func (s *Stream) Records() []trace.Record {
	out := make([]trace.Record, len(s.recs))
	for i := range s.recs {
		out[i] = s.At(i)
	}
	return out
}

// Bytes returns the size the stream's records are accounted at.
func (s *Stream) Bytes() int64 { return int64(cap(s.recs)) * recordBytes }

// prefix returns the stream Generate(budget) emits, served from s: it
// stops at its first budget check made with at least budget records
// emitted, and every run makes the same checks until it stops. It
// returns s itself when that is the whole of s, and nil when s holds
// no check at or past budget. A materialized stream ends at a check,
// so that happens only when s is shorter than budget.
func (s *Stream) prefix(budget int) *Stream {
	for i := budget - 1; i < len(s.recs); i++ {
		if !s.recs[i].check {
			continue
		}
		if n := i + 1; n < len(s.recs) {
			return &Stream{name: s.name, recs: s.recs[:n:n]}
		}
		return s
	}
	return nil
}

// streamKey identifies one benchmark's stream: everything generation
// is a pure function of, but the budget.
type streamKey struct {
	name string
	seed uint64
}

// streamEntry is one key's resident stream and its generation in
// flight, either of which may be absent.
type streamEntry struct {
	key    streamKey
	stream *Stream       // the resident stream, nil when none is
	elem   *list.Element // position in the LRU list while stream is set
	build  *streamBuild
}

// streamBuild is one generation of a key's stream at budget. stream
// is set before done closes, and stays nil when the stream is
// declined or its generation panics.
type streamBuild struct {
	budget int
	done   chan struct{}
	stream *Stream
}

// StreamStats counts what a StreamCache did across its lifetime.
type StreamStats struct {
	// Generated is the number of materializations (each one full
	// Benchmark.Generate run into a resident buffer). A request
	// GetAdmitted declines is not counted: its caller generates the
	// records itself. Nor is a stream declined for an address wider
	// than 32 bits. A stream serves every budget up to its length, so
	// a warm-up-sharded suite run over n benchmarks that shares one
	// cache generates exactly n streams, regardless of shard and
	// configuration counts; an unsharded one generates n from its
	// second configuration on, and none for a single configuration. A
	// request longer than the resident stream generates the key's
	// stream again.
	Generated uint64
	// Hits is the number of Gets that found their stream resident or
	// being generated (a waiter on a declined stream counts too).
	Hits uint64
	// ResidentBytes and ResidentStreams describe what the LRU holds.
	ResidentBytes   int64
	ResidentStreams int
}

// StreamCache materializes benchmark streams once and bounds their
// resident memory with an LRU; GetAdmitted adds the single-reader
// admission rule. A cache is safe for concurrent use; concurrent Gets
// of one stream generate it exactly once (the losers block until the
// winner finishes). Streams live only in memory: regenerating one is
// faster than reading it back from disk (DESIGN.md §6).
type StreamCache struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[streamKey]*streamEntry
	order   *list.List // front = most recently used
	bytes   int64
	// seen maps each key GetAdmitted declined a request for to the
	// longest budget it declined, for at most seenKeys keys; seenOrder
	// lists them oldest first from index seenNext, and the oldest is
	// forgotten first.
	seen      map[streamKey]int
	seenOrder []streamKey
	seenNext  int

	generated uint64
	hits      uint64
}

// NewStreamCache returns a cache bounded at maxBytes of resident
// stream memory (0 means DefaultStreamMemory). The bound is honoured
// by evicting least-recently-used streams on insert; streams still
// referenced by in-flight simulations stay alive until those
// simulations drop them. spillDir is ignored (streams are never
// written to disk); it stays in the signature for existing callers.
func NewStreamCache(maxBytes int64, spillDir string) *StreamCache {
	if maxBytes == 0 {
		maxBytes = DefaultStreamMemory
	}
	return &StreamCache{
		maxBytes: maxBytes,
		entries:  map[streamKey]*streamEntry{},
		order:    list.New(),
		seen:     map[streamKey]int{},
	}
}

// Stats returns cumulative counters and the current resident set.
func (c *StreamCache) Stats() StreamStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return StreamStats{
		Generated:       c.generated,
		Hits:            c.hits,
		ResidentBytes:   c.bytes,
		ResidentStreams: c.order.Len(),
	}
}

// Get returns the materialized stream of b at the given budget. A
// resident stream of b at least that long serves it with no
// generation; otherwise b's stream is generated at budget and replaces
// the resident one (readers of the old stream keep it). It returns nil
// when the stream alone would exceed the cache's memory bound, or when
// it holds a PC or target wider than 32 bits — callers must then fall
// back to streaming generation.
func (c *StreamCache) Get(b Benchmark, budget int) *Stream {
	return c.get(b, budget, false)
}

// GetAdmitted is Get for a caller that reads the stream once. A
// request no resident stream serves returns nil when it is the key's
// first or asks for more than any declined request of the key did; it
// then records its budget as the key's longest declined one, and the
// caller generates the records itself, which costs what materializing
// them would without keeping a buffer nobody reads again. Such a
// request is declined at once even while a shorter generation of the
// key is in flight, whose overshoot could cover only a few records
// of it. A request within the longest declined budget is Get at that
// budget: it materializes the longest prefix requested so far, and
// later requests up to it hit. So same-budget traffic materializes on a
// key's second request, strictly ascending budgets materialize
// nothing, and shuffled ones at most once per new longest request.
// The cache remembers declines for the last seenKeys keys; a key
// requested again after that many others is a first request again.
func (c *StreamCache) GetAdmitted(b Benchmark, budget int) *Stream {
	return c.get(b, budget, true)
}

// get is Get, and GetAdmitted when admit is set.
func (c *StreamCache) get(b Benchmark, budget int, admit bool) *Stream {
	// A stream that cannot fit resident at all is not worth
	// materializing: the caller's streaming path runs in O(1) memory.
	// The bound is divided rather than the budget multiplied, and the
	// buffer's capacity, budget+64, must fit an int, so no budget can
	// wrap either estimate.
	if budget <= 0 || int64(budget) > min(c.maxBytes/recordBytes, math.MaxInt)-64 {
		return nil
	}
	key := streamKey{name: b.Name, seed: b.Seed}

	c.mu.Lock()
	for {
		e := c.entries[key]
		if e == nil {
			break
		}
		if e.stream != nil {
			if st := e.stream.prefix(budget); st != nil {
				c.order.MoveToFront(e.elem)
				c.hits++
				c.mu.Unlock()
				return st
			}
		}
		bd := e.build
		if bd == nil {
			break
		}
		if bd.budget >= budget {
			c.hits++
			c.mu.Unlock()
			<-bd.done
			if bd.stream == nil {
				return nil
			}
			return bd.stream.prefix(budget)
		}
		if admit && budget > c.seen[key] {
			break // declined below
		}
		// The generation in flight asks for less than this request, but
		// its overshoot may still cover it: wait for it and look again.
		c.mu.Unlock()
		<-bd.done
		c.mu.Lock()
	}
	// A key GetAdmitted never declined reads as longest 0.
	longest := c.seen[key]
	if admit && budget > longest {
		c.declineLocked(key, budget)
		c.mu.Unlock()
		return nil
	}
	bd := &streamBuild{budget: budget, done: make(chan struct{})}
	if admit {
		bd.budget = longest
	}
	e := c.entries[key]
	if e == nil {
		e = &streamEntry{key: key}
		c.entries[key] = e
	}
	e.build = bd
	c.mu.Unlock()

	c.runBuild(b, e, bd)
	if bd.stream == nil {
		return nil
	}
	return bd.stream.prefix(budget)
}

// runBuild runs generation bd of e's stream and installs the result. A
// stream that fits the bound replaces e's resident one; the build's
// waiters get the stream either way, or nil when it is declined. If
// generation panics the waiters get nil, the entry is released so a
// later request starts over, and the panic continues to the caller.
func (c *StreamCache) runBuild(b Benchmark, e *streamEntry, bd *streamBuild) {
	defer func() {
		c.mu.Lock()
		e.build = nil
		if st := bd.stream; st != nil {
			c.generated++
			// Generation also overshoots the budget to its next check,
			// so a stream can come out larger than the pre-generation
			// estimate admitted. Hand it to the waiters but do not keep
			// it resident: the bound is a promise.
			if st.Bytes() <= c.maxBytes {
				c.dropLocked(e)
				e.stream = st
				e.elem = c.order.PushFront(e)
				c.bytes += st.Bytes()
				c.evictLocked(e)
			}
		}
		if e.stream == nil {
			// Nothing resident: a later request must not wait on the
			// entry.
			delete(c.entries, e.key)
		}
		c.mu.Unlock()
		close(bd.done)
	}()
	if recs := materialize(b, bd.budget); recs != nil {
		bd.stream = &Stream{name: b.Name, recs: recs}
	}
}

// materialize generates b's stream at budget into packed records,
// marking each record a budget check follows. It returns nil, keeping
// nothing, when a PC or target needs more than 32 bits: such a stream
// cannot be stored in a record.
func materialize(b Benchmark, budget int) []record {
	recs := make([]record, 0, budget+64) // never nil: nil marks a decline
	b.generate(budget, func(r trace.Record) {
		if recs == nil {
			return
		}
		if (r.PC|r.Target)>>32 != 0 {
			recs = nil
			return
		}
		recs = append(recs, record{pc: uint32(r.PC), target: uint32(r.Target), kind: r.Kind, taken: r.Taken, gap: r.InstrGap})
	}, func() {
		if n := len(recs); n > 0 {
			recs[n-1].check = true
		}
	})
	if cap(recs) > len(recs)+64 {
		// A large final episode forced the buffer to double; trim so
		// resident accounting reflects what is actually held.
		recs = append(make([]record, 0, len(recs)), recs...)
	}
	return recs
}

// evictLocked drops least-recently-used streams until the resident set
// fits the bound. keep (the entry just inserted) is never evicted: it
// is about to be used, and evicting it would only force an immediate
// regeneration.
func (c *StreamCache) evictLocked(keep *streamEntry) {
	for c.bytes > c.maxBytes && c.order.Len() > 1 {
		e := c.order.Back().Value.(*streamEntry)
		if e == keep {
			break
		}
		c.dropLocked(e)
		if e.build == nil {
			delete(c.entries, e.key)
		}
	}
}

// dropLocked takes e's resident stream, if any, out of the LRU.
// Readers holding the stream keep it.
func (c *StreamCache) dropLocked(e *streamEntry) {
	if e.elem == nil {
		return
	}
	c.order.Remove(e.elem)
	c.bytes -= e.stream.Bytes()
	e.stream, e.elem = nil, nil
}

// declineLocked records budget as key's longest declined request,
// adding key to the seen-set if it is new there and forgetting the
// oldest key when the set is full.
func (c *StreamCache) declineLocked(key streamKey, budget int) {
	if _, ok := c.seen[key]; !ok {
		if len(c.seenOrder) < seenKeys {
			c.seenOrder = append(c.seenOrder, key)
		} else {
			delete(c.seen, c.seenOrder[c.seenNext])
			c.seenOrder[c.seenNext] = key
			c.seenNext = (c.seenNext + 1) % seenKeys
		}
	}
	c.seen[key] = budget
}
