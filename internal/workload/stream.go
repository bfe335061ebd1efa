package workload

import (
	"container/list"
	"sync"

	"repro/internal/trace"
)

// This file is the materialized-stream layer (DESIGN.md §6): each
// benchmark's deterministic record stream is generated **once** per
// (trace name, seed, budget) into a compact in-memory buffer of
// 12-byte records and handed out as a read-only Stream, so the
// simulation engine's shards — and every configuration of a batch run
// sharing the cache — stop paying O(shards × budget) regeneration
// work. A caller that reads a stream once asks through GetAdmitted,
// which materializes it only from its key's second request.

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
}

// recordBytes is the accounting cost of one resident record: two
// uint32 addresses plus kind, taken and gap, padded to 4-byte
// alignment. A test pins it to the record layout.
const recordBytes = int64(12)

// seenKeys bounds how many declined first requests GetAdmitted
// remembers. A key's second reader must arrive within this many other
// single-reader keys to find it remembered; an engine's suite run asks
// for one key per benchmark (a full cbp4+cbp3 run is 80), and a fleet
// worker for one per leased item. At ~100 bytes a key the set stays
// under half a MiB.
const seenKeys = 4096

// Stream is the materialized record stream of one benchmark at one
// budget. It may run a few records past the budget: generation stops
// at episode granularity (see Generate), and the overshoot is part of
// the deterministic stream an unsharded run measures. A Stream is
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

// Bytes returns the resident size the stream is accounted at.
func (s *Stream) Bytes() int64 { return int64(cap(s.recs)) * recordBytes }

// streamKey identifies one materialized stream: everything generation
// is a pure function of.
type streamKey struct {
	name   string
	seed   uint64
	budget int
}

type streamEntry struct {
	key    streamKey
	ready  chan struct{} // closed once stream is set
	stream *Stream
	elem   *list.Element // position in the LRU list; nil once evicted
}

// StreamStats counts what a StreamCache did across its lifetime.
type StreamStats struct {
	// Generated is the number of materializations (each one full
	// Benchmark.Generate run into a resident buffer). A first request
	// GetAdmitted declines is not counted: its caller generates the
	// records itself. Nor is a stream declined for an address wider
	// than 32 bits. A warm-up-sharded suite run over n benchmarks that
	// shares one cache generates exactly n streams, regardless of shard
	// and configuration counts; an unsharded one generates n from its
	// second configuration on, and none for a single configuration.
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
// admission rule. A cache is safe for concurrent use;
// concurrent Gets of the same stream generate it exactly once (the
// losers block until the winner finishes). Streams live only in
// memory: regenerating one is faster than reading it back from disk
// (DESIGN.md §6).
type StreamCache struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[streamKey]*streamEntry
	order   *list.List // front = most recently used
	bytes   int64
	// seen holds the keys whose first request GetAdmitted declined, at
	// most seenKeys of them; seenOrder lists them oldest first from
	// index seenNext, and the oldest is forgotten first.
	seen      map[streamKey]struct{}
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
		seen:     map[streamKey]struct{}{},
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

// Get returns the materialized stream of b at the given budget,
// generating it on first use. It returns nil when the stream alone
// would exceed the cache's memory bound, or when it holds a PC or
// target wider than 32 bits — callers must then fall back to
// streaming generation.
func (c *StreamCache) Get(b Benchmark, budget int) *Stream {
	return c.get(b, budget, false)
}

// GetAdmitted is Get for a caller that reads the stream once. A key's
// first request returns nil and only records the key; the caller then
// generates the records itself, which costs what materializing them
// would without keeping a buffer nobody reads again. From the key's
// second request on, GetAdmitted is Get: the second materializes the
// stream and later ones hit it. The cache remembers the last seenKeys
// declined keys; a key requested again after that many others is a
// first request again.
func (c *StreamCache) GetAdmitted(b Benchmark, budget int) *Stream {
	return c.get(b, budget, true)
}

// get is Get, and GetAdmitted when admit is set.
func (c *StreamCache) get(b Benchmark, budget int, admit bool) *Stream {
	if budget <= 0 {
		return nil
	}
	// A stream that cannot fit resident at all is not worth
	// materializing: the caller's streaming path runs in O(1) memory.
	if (int64(budget)+64)*recordBytes > c.maxBytes {
		return nil
	}
	key := streamKey{name: b.Name, seed: b.Seed, budget: budget}

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.order.MoveToFront(e.elem)
		}
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.stream
	}
	if admit && c.firstRequestLocked(key) {
		c.mu.Unlock()
		return nil
	}
	e := &streamEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	var st *Stream
	if recs := materialize(b, budget); recs != nil {
		st = &Stream{name: b.Name, recs: recs}
	}

	c.mu.Lock()
	e.stream = st
	if st != nil {
		c.generated++
	}
	if st == nil || st.Bytes() > c.maxBytes {
		// A declined stream reaches its waiters as nil, and dropping
		// the entry keeps a later Get from waiting on it. Generation
		// also overshoots the budget at episode granularity, so a
		// stream can come out larger than the pre-generation estimate
		// admitted. Hand it to the waiters but do not keep it
		// resident: the bound is a promise.
		delete(c.entries, key)
	} else {
		e.elem = c.order.PushFront(e)
		c.bytes += st.Bytes()
		c.evictLocked(e)
	}
	c.mu.Unlock()
	close(e.ready)
	return st
}

// materialize generates b's stream at budget into packed records. It
// returns nil, keeping nothing, when a PC or target needs more than 32
// bits: such a stream cannot be stored in a record.
func materialize(b Benchmark, budget int) []record {
	recs := make([]record, 0, budget+64) // never nil: nil marks a decline
	b.Generate(budget, func(r trace.Record) {
		if recs == nil {
			return
		}
		if (r.PC|r.Target)>>32 != 0 {
			recs = nil
			return
		}
		recs = append(recs, record{pc: uint32(r.PC), target: uint32(r.Target), kind: r.Kind, taken: r.Taken, gap: r.InstrGap})
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
		back := c.order.Back()
		e := back.Value.(*streamEntry)
		if e == keep {
			break
		}
		c.order.Remove(back)
		e.elem = nil
		c.bytes -= e.stream.Bytes()
		delete(c.entries, e.key)
	}
}

// firstRequestLocked reports whether key is missing from the seen-set,
// recording it there if so, and forgets the oldest key when the set is
// full.
func (c *StreamCache) firstRequestLocked(key streamKey) bool {
	if _, ok := c.seen[key]; ok {
		return false
	}
	if len(c.seenOrder) < seenKeys {
		c.seenOrder = append(c.seenOrder, key)
	} else {
		delete(c.seen, c.seenOrder[c.seenNext])
		c.seenOrder[c.seenNext] = key
		c.seenNext = (c.seenNext + 1) % seenKeys
	}
	c.seen[key] = struct{}{}
	return true
}
