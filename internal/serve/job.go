package serve

import (
	"context"
	"strings"
	"sync"
	"time"

	"repro/client"
)

// job is the server-side state of one submitted job: the normalized
// spec, lifecycle timestamps, the cancellation context its simulation
// runs under, and an append-only event log that SSE subscribers replay
// and tail. The wire view (client.Job) is derived on demand.
type job struct {
	id     string
	spec   client.Spec
	ctx    context.Context
	cancel context.CancelFunc
	// replayed marks a job recovered from the journal on startup; set
	// before the workers start, immutable afterwards.
	replayed bool

	mu          sync.Mutex
	cond        *sync.Cond
	status      client.Status
	errMsg      string
	done, total int
	created     time.Time
	started     time.Time
	finished    time.Time
	events      []client.Event
	closed      bool
	result      *client.Result
	// logBuf holds a partial progress line until its newline arrives
	// (experiment runners write lines in chunks).
	logBuf strings.Builder
}

func newJob(id string, spec client.Spec, now time.Time) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{id: id, spec: spec, ctx: ctx, cancel: cancel,
		status: client.StatusQueued, created: now}
	j.cond = sync.NewCond(&j.mu)
	j.events = append(j.events, client.Event{Type: "status", Job: j.viewLocked()})
	return j
}

// viewLocked builds the wire view; callers must hold j.mu (newJob is
// the single-threaded exception).
func (j *job) viewLocked() *client.Job {
	return &client.Job{
		ID: j.id, Spec: j.spec, Status: j.status, Error: j.errMsg,
		Replayed: j.replayed, Done: j.done, Total: j.total,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
}

// view returns the job's current wire view.
func (j *job) view() client.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return *j.viewLocked()
}

// appendLocked appends an event and wakes subscribers; callers must
// hold j.mu.
func (j *job) appendLocked(ev client.Event) {
	if j.closed {
		return
	}
	j.events = append(j.events, ev)
	j.cond.Broadcast()
}

// setRunning transitions queued → running. It reports false when the
// job is no longer queued (canceled while waiting for a worker).
func (j *job) setRunning(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != client.StatusQueued {
		return false
	}
	j.status = client.StatusRunning
	j.started = now
	j.appendLocked(client.Event{Type: "status", Job: j.viewLocked()})
	return true
}

// finish transitions to a terminal status, records the result (done
// jobs) or error text (failed jobs), appends the final "done" event,
// and closes the event log.
func (j *job) finish(status client.Status, errMsg string, res *client.Result, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Finished() {
		return
	}
	j.flushLogLocked()
	j.status = status
	j.errMsg = errMsg
	j.result = res
	j.finished = now
	j.appendLocked(client.Event{Type: "done", Job: j.viewLocked()})
	j.closed = true
	j.cond.Broadcast()
}

// progress records one completed engine work item.
func (j *job) progress(p client.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done, j.total = p.Done, p.Total
	j.appendLocked(client.Event{Type: "progress", Progress: &p})
}

// Write makes the job a progress-line sink for experiment runners
// (experiments.Params.Progress): every completed line becomes a "log"
// event, exactly as imlireport prints it on stderr.
func (j *job) Write(p []byte) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, b := range p {
		if b == '\n' {
			j.appendLocked(client.Event{Type: "log", Line: j.logBuf.String()})
			j.logBuf.Reset()
			continue
		}
		j.logBuf.WriteByte(b)
	}
	return len(p), nil
}

// flushLogLocked emits any trailing partial progress line; callers
// must hold j.mu.
func (j *job) flushLogLocked() {
	if j.logBuf.Len() > 0 {
		j.appendLocked(client.Event{Type: "log", Line: j.logBuf.String()})
		j.logBuf.Reset()
	}
}

// waitEvents blocks until the log holds more than `from` events, the
// log is closed, or ctx is canceled; it returns a copy of the events
// from that index on and whether the log is closed. The final "done"
// event is always the last one delivered.
func (j *job) waitEvents(ctx context.Context, from int) ([]client.Event, bool) {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.events) <= from && !j.closed && ctx.Err() == nil {
		j.cond.Wait()
	}
	if from >= len(j.events) {
		return nil, j.closed
	}
	out := make([]client.Event, len(j.events)-from)
	copy(out, j.events[from:])
	return out, j.closed
}
