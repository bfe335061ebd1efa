package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by a traced pass. Spans
// live in memory and are written out when the benchmark ends.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer records spans around the benchmark's calls into each layer's
// public functions. A nil tracer records nothing, so untraced passes run
// the same code with only a clock read per timed call.
type tracer struct {
	workload string
	origin   time.Time
	next     atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// openSpan is a span between begin and end.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for a root span).
func (t *tracer) begin(parent int64, name string) openSpan {
	s := openSpan{t: t, parent: parent, name: name, start: time.Now()}
	if t != nil {
		s.id = t.next.Add(1)
	}
	return s
}

// end closes the span, records it when tracing, and returns its
// duration either way.
func (s openSpan) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if s.t == nil {
		return d
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{
		ID: s.id, Parent: s.parent, Name: s.name,
		StartNS: s.start.Sub(s.t.origin).Nanoseconds(), EndNS: now.Sub(s.t.origin).Nanoseconds(),
		Workload: s.t.workload,
	})
	s.t.mu.Unlock()
	return d
}

// durations returns the durations in milliseconds of every recorded
// span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the middle value (the mean of the two middle values for
// an even count), 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100),
// 0 for no values.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q*float64(len(s))/100)) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
