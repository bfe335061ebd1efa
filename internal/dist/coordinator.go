// Package dist distributes the simulation engine across processes
// (DESIGN.md §14): a Coordinator plugs into sim.Engine as its
// RemoteRunner and turns every registry-rebuildable work item into a
// leased entry of a worker-pull queue, and Workers — separate
// processes (cmd/imliworker) — lease items over HTTP, execute them
// with their own local engine, and post the results back. Only the
// fleet binaries (cmd/imlid -coordinator, cmd/imliworker) link this
// package; every other tool runs its engine in-process.
//
// The design leans entirely on determinism: a work item is a value
// (registry names + seeds + geometry, sim.ItemSpec), its result is a
// pure function of that value, and the content-addressed store remains
// the merge point. So every fault-handling decision is allowed to be
// simple-minded — an expired lease re-dispatches the item, a straggler
// finishing after expiry still gets credited (or discarded as a
// duplicate), a worker running the same item twice produces the same
// bytes — and the final suite results are bit-identical to a serial
// single-process run no matter which subset of these faults occurred.
// The chaos tests in this package assert exactly that.
//
// Dispatch is event-driven. A lease request waits on the coordinator
// until an item is pending, and a completion can carry the worker's
// next lease, so a busy worker makes one round trip per item. Lease
// expiry is evaluated by lease requests, not on a background timer: a
// waiting request also wakes at the earliest lease deadline, and with
// no worker asking for work nothing could execute a re-dispatched item
// anyway, so the package stays free of spinning goroutines.
package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/client"
	"repro/internal/faultinject"
	"repro/internal/sim"
)

// CoordinatorConfig sizes a Coordinator.
type CoordinatorConfig struct {
	// LeaseTTL is how long a worker may hold a leased item before the
	// coordinator re-dispatches it; <=0 means 30s. Lease requests check
	// expiry, and a waiting one wakes at the earliest lease deadline.
	LeaseTTL time.Duration
}

// ErrClosed is returned by RunItem when the coordinator is closed
// while the item is still outstanding.
var ErrClosed = errors.New("dist: coordinator closed")

// maxLeaseWait bounds how long a lease request waits for work before
// the coordinator answers that none is pending (docs/API.md). It only
// limits how long an idle worker's request is held open.
const maxLeaseWait = 10 * time.Second

// maxFailures is how many worker-reported error completions an item
// absorbs before the coordinator fails it (failing the jobs waiting on
// it). Worker crashes are not failures: a crashed worker's lease
// expires and the item re-dispatches indefinitely.
const maxFailures = 3

// keepDone bounds how many completed items are retained for duplicate
// detection and result re-delivery.
const keepDone = 4096

// itemState is a work item's scheduling state.
type itemState int

const (
	statePending itemState = iota // queued, waiting for a lease
	stateLeased                   // held by a worker under a live lease
	stateDone                     // first successful completion arrived
	stateFailed                   // maxFailures error completions
)

// workItem is the coordinator's record of one dispatched ItemSpec.
type workItem struct {
	spec sim.ItemSpec
	key  string

	state    itemState
	lease    string // current lease ID while stateLeased
	failures int
	waiters  int // RunItem calls waiting on the item

	results []sim.Result
	err     error
	done    chan struct{} // closed at stateDone/stateFailed
}

// lease is one granted lease.
type lease struct {
	item     *workItem
	worker   string
	deadline time.Time
}

// Coordinator owns the work-item queue a fleet of workers pulls from.
// It implements sim.RemoteRunner, so handing it to
// sim.EngineConfig.Remote turns that engine into the coordinator side
// of a distributed run. Create with NewCoordinator, expose with
// Handler, stop with Close.
type Coordinator struct {
	ttl time.Duration

	mu        sync.Mutex
	items     map[string]*workItem // live + retained-done items by key
	queue     []*workItem          // FIFO of pending items (lazily compacted)
	leases    map[string]*lease    // active leases by ID
	doneOrder []string             // retained-done keys, oldest first
	nextLease int
	closed    chan struct{}
	// wake is closed and replaced whenever an item becomes pending,
	// waking every waiting lease request.
	wake chan struct{}

	dispatched uint64
	completed  uint64
	failures   uint64
	expired    uint64
	requeued   uint64
	duplicates uint64
	stale      uint64
	mismatches uint64
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	return &Coordinator{
		ttl:    cfg.LeaseTTL,
		items:  map[string]*workItem{},
		leases: map[string]*lease{},
		closed: make(chan struct{}),
		wake:   make(chan struct{}),
	}
}

// Close fails every outstanding RunItem with ErrClosed and makes
// waiting and further leases come back empty. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.isClosed() {
		close(c.closed)
	}
}

func (c *Coordinator) isClosed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

// itemKey canonicalizes an ItemSpec: its JSON encoding (fixed field
// order, every string quoted), the same no-ambiguity convention the
// result store keys with.
func itemKey(spec sim.ItemSpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// ItemSpec is strings, ints and a bool; Marshal cannot fail.
		panic(fmt.Sprintf("dist: item key encoding: %v", err))
	}
	return string(b)
}

// RunItem implements sim.RemoteRunner: it enqueues the item (or joins
// the in-flight entry — concurrent identical requests share one
// execution, like the engine's own dedup layers) and blocks until a
// worker delivers the result, the item exhausts maxFailures, ctx is
// canceled, or the coordinator closes. When the last waiter's ctx ends
// while the item is still pending, the item is withdrawn, so a
// canceled job's work does not run on the fleet; a leased item runs
// to completion.
func (c *Coordinator) RunItem(ctx context.Context, item sim.ItemSpec) ([]sim.Result, error) {
	k := itemKey(item)
	c.mu.Lock()
	it, ok := c.items[k]
	if !ok {
		it = &workItem{spec: item, key: k, done: make(chan struct{})}
		c.items[k] = it
		c.pushLocked(it)
	}
	it.waiters++
	c.mu.Unlock()

	select {
	case <-it.done:
	case <-ctx.Done():
		c.leave(it)
		return nil, ctx.Err()
	case <-c.closed:
		return nil, ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if it.err != nil {
		return nil, it.err
	}
	return append([]sim.Result(nil), it.results...), nil
}

// leave drops one of the item's waiters. The last one out withdraws a
// still-pending item from the queue and the index.
func (c *Coordinator) leave(it *workItem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it.waiters--
	if it.waiters > 0 || it.state != statePending {
		return
	}
	delete(c.items, it.key)
	for i, q := range c.queue {
		if q == it {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

// pushLocked queues a pending item and wakes every waiting lease
// request. Waking them all costs one failed grant per extra waiter,
// which at fleet sizes is cheaper than tracking who waits.
func (c *Coordinator) pushLocked(it *workItem) {
	c.queue = append(c.queue, it)
	close(c.wake)
	c.wake = make(chan struct{})
}

// Lease grants the oldest pending item to a worker, waiting for one
// until deadline passes, ctx ends or the coordinator closes; ok is
// false when nothing was granted. A zero or past deadline makes one
// attempt without waiting, and a request whose ctx has ended takes no
// item. Every attempt first requeues expired leases (or, under an
// injected "dist/lease.expire" fault, force-expires every live lease —
// the test harness's way of compressing a TTL elapse into an instant),
// and a waiting request also wakes at the earliest lease deadline, so
// expired items re-dispatch without a background goroutine.
func (c *Coordinator) Lease(ctx context.Context, worker string, deadline time.Time) (client.WorkLease, bool) {
	for {
		now := time.Now()
		force := faultinject.Err("dist/lease.expire") != nil
		c.mu.Lock()
		if c.isClosed() || ctx.Err() != nil {
			c.mu.Unlock()
			return client.WorkLease{}, false
		}
		c.expireLocked(now, force)
		if l, ok := c.grantLocked(worker, now); ok {
			c.mu.Unlock()
			return l, true
		}
		wake, until := c.wake, deadline
		for _, l := range c.leases {
			if l.deadline.Before(until) {
				until = l.deadline
			}
		}
		c.mu.Unlock()
		if !until.After(now) {
			return client.WorkLease{}, false
		}
		t := time.NewTimer(until.Sub(now))
		select {
		case <-wake:
		case <-t.C:
		case <-ctx.Done():
		case <-c.closed:
		}
		t.Stop()
	}
}

// grantLocked leases the oldest pending item to worker; ok is false
// when none is pending.
func (c *Coordinator) grantLocked(worker string, now time.Time) (client.WorkLease, bool) {
	for len(c.queue) > 0 {
		it := c.queue[0]
		c.queue = c.queue[1:]
		if it.state != statePending {
			// A requeue entry made stale by a late completion.
			continue
		}
		c.nextLease++
		id := fmt.Sprintf("l%d", c.nextLease)
		it.state = stateLeased
		it.lease = id
		c.leases[id] = &lease{item: it, worker: worker, deadline: now.Add(c.ttl)}
		c.dispatched++
		return client.WorkLease{Lease: id, TTLMillis: c.ttl.Milliseconds(), Item: toWireItem(it.spec)}, true
	}
	return client.WorkLease{}, false
}

// expireLocked drops every lease past its deadline (all of them when
// force is set) and requeues the items they held. An item completed
// under a since-expired lease is already done and is not requeued.
func (c *Coordinator) expireLocked(now time.Time, force bool) {
	for id, l := range c.leases {
		if !force && l.deadline.After(now) {
			continue
		}
		delete(c.leases, id)
		c.expired++
		if it := l.item; it.state == stateLeased && it.lease == id {
			c.requeueLocked(it)
		}
	}
}

// requeueLocked returns a leased item to the queue.
func (c *Coordinator) requeueLocked(it *workItem) {
	it.state = statePending
	it.lease = ""
	c.requeued++
	c.pushLocked(it)
}

// Complete credits a completion. The item, not the lease, is the
// correctness handle: a completion under an expired lease still
// delivers (marked Stale), one for an already-done item is verified
// bit-identical against the first and discarded (Duplicate), and one
// for an item the coordinator has no record of — e.g. from before a
// coordinator restart — is acknowledged but not credited (Accepted
// false). Error completions count toward the item's maxFailures
// budget and requeue it until the budget is exhausted. A completion
// asking for Next gets the sender's next lease in the acknowledgment
// if an item is pending at that moment; it never waits for one.
func (c *Coordinator) Complete(comp client.WorkCompletion) client.WorkAck {
	c.mu.Lock()
	defer c.mu.Unlock()
	ack := c.completeLocked(comp)
	if comp.Next && !c.isClosed() {
		if l, ok := c.grantLocked(comp.Worker, time.Now()); ok {
			ack.Next = &l
		}
	}
	return ack
}

func (c *Coordinator) completeLocked(comp client.WorkCompletion) client.WorkAck {
	k := itemKey(fromWireItem(comp.Item))

	it, known := c.items[k]
	l, leaseLive := c.leases[comp.Lease]
	if leaseLive {
		delete(c.leases, comp.Lease)
		if it == nil {
			it = l.item
			known = true
		}
	}
	if !known {
		return client.WorkAck{Accepted: false}
	}

	switch it.state {
	case stateDone, stateFailed:
		c.duplicates++
		if it.state == stateDone && comp.Error == "" && !slices.Equal(it.results, fromWireResults(comp.Results)) {
			// Deterministic items make duplicate payloads bit-identical;
			// a mismatch means a worker simulated dishonestly (or a
			// registry drifted between binaries) and must be surfaced.
			c.mismatches++
		}
		return client.WorkAck{Accepted: true, Duplicate: true}
	default:
	}

	wasCurrentLease := leaseLive && l.item == it && it.lease == comp.Lease
	if comp.Error != "" {
		return c.failLocked(it, comp.Error, wasCurrentLease)
	}
	results := fromWireResults(comp.Results)
	if len(results) != 1 {
		// A malformed success is a failure in disguise; the retry
		// budget applies.
		return c.failLocked(it, fmt.Sprintf("completion carried %d results, want 1", len(results)), wasCurrentLease)
	}
	it.state = stateDone
	it.lease = ""
	it.results = results
	c.completed++
	stale := !wasCurrentLease
	if stale {
		c.stale++
	}
	close(it.done)
	c.retainDoneLocked(it)
	return client.WorkAck{Accepted: true, Stale: stale}
}

// failLocked charges one failure against the item: past maxFailures
// the item fails (waiters get the error, and the item leaves the index
// so a later identical request retries fresh); before that it requeues
// — unless it is pending already, or another worker holds a newer
// lease on it.
func (c *Coordinator) failLocked(it *workItem, msg string, wasCurrentLease bool) client.WorkAck {
	c.failures++
	it.failures++
	if it.failures >= maxFailures {
		it.state = stateFailed
		it.err = fmt.Errorf("dist: item failed %d times, last: %s", it.failures, msg)
		delete(c.items, it.key)
		close(it.done)
		return client.WorkAck{Accepted: true}
	}
	if it.state == stateLeased && wasCurrentLease {
		c.requeueLocked(it)
	}
	return client.WorkAck{Accepted: true}
}

// retainDoneLocked keeps the completed item for duplicate detection,
// evicting the oldest retained completion past the keepDone bound.
func (c *Coordinator) retainDoneLocked(it *workItem) {
	c.doneOrder = append(c.doneOrder, it.key)
	for len(c.doneOrder) > keepDone {
		delete(c.items, c.doneOrder[0])
		c.doneOrder = c.doneOrder[1:]
	}
}

// Stats snapshots the queue and its cumulative counters.
func (c *Coordinator) Stats() client.WorkStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := client.WorkStats{
		Dispatched: c.dispatched, Completed: c.completed, Failures: c.failures,
		Expired: c.expired, Requeued: c.requeued,
		Duplicates: c.duplicates, Stale: c.stale, Mismatches: c.mismatches,
	}
	for _, it := range c.items {
		switch it.state {
		case statePending:
			st.Pending++
		case stateLeased:
			st.Leased++
		case stateDone:
			st.Done++
		}
	}
	return st
}

// toWireItem / fromWireItem / toWireResults / fromWireResults convert
// between the engine's internal types and the public wire types
// field-for-field; the wire package stays free of internal imports.

func toWireItem(s sim.ItemSpec) client.WorkItem {
	return client.WorkItem{Config: s.Config, Suite: s.Suite, Bench: s.Bench, Seed: s.Seed,
		Budget: s.Budget, Shard: s.Shard, Shards: s.Shards, Warmup: s.Warmup, Exact: s.Exact}
}

func fromWireItem(w client.WorkItem) sim.ItemSpec {
	return sim.ItemSpec{Config: w.Config, Suite: w.Suite, Bench: w.Bench, Seed: w.Seed,
		Budget: w.Budget, Shard: w.Shard, Shards: w.Shards, Warmup: w.Warmup, Exact: w.Exact}
}

func toWireResults(rs []sim.Result) []client.WorkResult {
	out := make([]client.WorkResult, len(rs))
	for i, r := range rs {
		out[i] = client.WorkResult{Trace: r.Trace, Predictor: r.Predictor,
			Instructions: r.Instructions, Records: r.Records,
			Conditionals: r.Conditionals, Mispredicted: r.Mispredicted}
	}
	return out
}

func fromWireResults(ws []client.WorkResult) []sim.Result {
	out := make([]sim.Result, len(ws))
	for i, w := range ws {
		out[i] = sim.Result{Trace: w.Trace, Predictor: w.Predictor,
			Instructions: w.Instructions, Records: w.Records,
			Conditionals: w.Conditionals, Mispredicted: w.Mispredicted}
	}
	return out
}

var _ sim.RemoteRunner = (*Coordinator)(nil)
