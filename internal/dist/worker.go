package dist

import (
	"context"
	"time"

	"repro/client"
	"repro/internal/faultinject"
	"repro/internal/sim"
)

// Worker is the pull side of the queue: a loop that leases items from
// a coordinator, executes them on a local engine with the item's own
// geometry (Engine.RunItem), and posts completions, each asking for the
// next item so a busy worker makes one round trip per item. A worker is
// stateless between items — all durable state is the coordinator's
// queue and the engines' content-addressed stores — so killing one at
// any instant loses at most the lease it held, which expires and
// re-dispatches.
type Worker struct {
	// Client talks to the coordinator's /v1/work endpoints.
	Client *client.Client
	// Engine executes leased items; its -parallel bound, cache dir and
	// snapshot settings are the worker's own (item geometry — shards,
	// warm-up — comes from each item).
	Engine *sim.Engine
	// Name labels the worker in leases and stats.
	Name string
	// Poll is the back-off after a transport error or a lease request
	// that came back empty (the coordinator's wait bound passed, or it
	// is closing); <=0 means 50ms.
	Poll time.Duration
}

// Run pulls and executes items until ctx is canceled; it returns nil
// on cancellation (the normal shutdown path). It serves the lease a
// completion's acknowledgment carries, and otherwise sends a lease
// request, which waits on the coordinator for work. Transport errors
// back off like an empty answer: the coordinator may be restarting,
// and the store-centric design makes blind retry safe.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	var next *client.WorkLease
	for ctx.Err() == nil {
		if next == nil {
			lease, ok, err := w.Client.LeaseWork(ctx, w.Name)
			if err != nil || !ok {
				sleepCtx(ctx, poll)
				continue
			}
			next = &lease
		}
		next = w.serve(ctx, *next)
	}
	return nil
}

// serve executes one leased item and returns the next lease the
// coordinator handed back with the acknowledgment, if any. The two
// faultinject sites model the mid-item failures the chaos tests mix:
// "dist/worker.kill" abandons the item after leasing it — externally
// indistinguishable from the worker process dying, so the lease must
// expire and re-dispatch — and "dist/worker.dupcomplete" re-sends a
// completion that was already delivered, the straggler-double-done case
// store dedup and coordinator idempotence must absorb. The re-send does
// not ask for another item.
func (w *Worker) serve(ctx context.Context, lease client.WorkLease) *client.WorkLease {
	if faultinject.Err("dist/worker.kill") != nil {
		return nil
	}
	comp := client.WorkCompletion{Lease: lease.Lease, Item: lease.Item, Worker: w.Name, Next: true}
	results, err := w.Engine.RunItem(ctx, fromWireItem(lease.Item))
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		comp.Error = err.Error()
	} else {
		comp.Results = toWireResults(results)
	}
	ack, err := w.Client.CompleteWork(ctx, comp)
	if err != nil {
		// Undeliverable completion: the lease expires and the item
		// re-dispatches; this worker's simulated shards are already in
		// its local store, so a re-run here would be a cache hit.
		return nil
	}
	if faultinject.Err("dist/worker.dupcomplete") != nil {
		comp.Next = false
		_, _ = w.Client.CompleteWork(ctx, comp)
	}
	return ack.Next
}

// sleepCtx sleeps d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
