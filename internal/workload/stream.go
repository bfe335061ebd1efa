package workload

import (
	"container/list"
	"sync"

	"repro/internal/trace"
)

// This file is the materialized-stream layer (DESIGN.md §6): each
// benchmark's deterministic record stream is generated **once** per
// (trace name, seed, budget) into a compact in-memory buffer and
// handed out as a read-only []trace.Record slice, so the simulation
// engine's shards — and every configuration of a batch run sharing the
// cache — stop paying O(shards × budget) regeneration work.

// DefaultStreamMemory is the resident-byte bound a zero-configured
// StreamCache uses. At ~24 bytes per record it holds dozens of
// full-size (250K-record) benchmark streams.
const DefaultStreamMemory = 256 << 20

// recordBytes is the accounting cost of one resident trace.Record.
const recordBytes = int64(24) // 2×uint64 + kind + taken + gap, padded

// Stream is the materialized record stream of one benchmark at one
// budget. The slice may run a few records past the budget: generation
// stops at episode granularity (see Generate), and the overshoot is
// part of the deterministic stream an unsharded run measures.
type Stream struct {
	name string
	recs []trace.Record
}

// Name returns the benchmark name the stream was generated from.
func (s *Stream) Name() string { return s.name }

// Records returns the materialized stream. The slice is shared and
// MUST be treated as read-only by all callers.
func (s *Stream) Records() []trace.Record { return s.recs }

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
	// Generated is the number of generator materializations (each one
	// full Benchmark.Generate run). A suite run over n benchmarks that
	// shares one cache should generate exactly n streams, regardless
	// of shard and configuration counts.
	Generated uint64
	// Hits is the number of Gets served from a resident stream.
	Hits uint64
	// ResidentBytes and ResidentStreams describe what the LRU holds.
	ResidentBytes   int64
	ResidentStreams int
}

// StreamCache materializes benchmark streams once and bounds their
// resident memory with an LRU. A cache is safe for concurrent use;
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
// would exceed the cache's memory bound — callers must then fall back
// to streaming generation.
func (c *StreamCache) Get(b Benchmark, budget int) *Stream {
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
	e := &streamEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	recs := make([]trace.Record, 0, budget+64)
	b.Generate(budget, func(r trace.Record) { recs = append(recs, r) })
	if cap(recs) > len(recs)+64 {
		// A large final episode forced the buffer to double; trim so
		// resident accounting reflects what is actually held.
		recs = append(make([]trace.Record, 0, len(recs)), recs...)
	}
	st := &Stream{name: b.Name, recs: recs}

	c.mu.Lock()
	e.stream = st
	c.generated++
	if st.Bytes() > c.maxBytes {
		// Generation overshoots the budget at episode granularity, so
		// a stream can come out larger than the pre-generation
		// estimate admitted. Hand it to the waiters but do not keep it
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
