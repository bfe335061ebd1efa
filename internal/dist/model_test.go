package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/client"
	"repro/internal/faultinject"
	"repro/internal/num"
	"repro/internal/sim"
)

// model is the reference state machine the coordinator is checked
// against: each indexed item's state, the pending items in grant order,
// the live leases and the expected counters.
type model struct {
	state    map[sim.ItemSpec]itemState // indexed items: pending, leased or done
	failures map[sim.ItemSpec]int
	current  map[sim.ItemSpec]string // a leased item's lease
	// queue holds the pending items in grant order. Items one expiry
	// requeues together form one group, granted in no set order.
	queue    [][]sim.ItemSpec
	leases   map[string]sim.ItemSpec // every live lease, current or not
	consumed uint64                  // live leases ended by a completion
	st       client.WorkStats
}

// push queues items as one group.
func (m *model) push(specs ...sim.ItemSpec) {
	for _, s := range specs {
		m.state[s] = statePending
	}
	if len(specs) > 0 {
		m.queue = append(m.queue, specs)
	}
}

// grant checks that spec was the coordinator's to grant and records
// the lease.
func (m *model) grant(id string, spec sim.ItemSpec) error {
	if len(m.queue) == 0 || !m.unqueue(spec, 1) {
		return fmt.Errorf("granted %v, pending %v", spec, m.queue)
	}
	m.state[spec] = stateLeased
	m.current[spec] = id
	m.leases[id] = spec
	m.st.Dispatched++
	return nil
}

// unqueue removes a pending item from the first groups groups of the
// queue and reports whether it was there.
func (m *model) unqueue(spec sim.ItemSpec, groups int) bool {
	for gi, g := range m.queue[:min(groups, len(m.queue))] {
		for i, s := range g {
			if s == spec {
				m.queue[gi] = append(g[:i:i], g[i+1:]...)
				if len(m.queue[gi]) == 0 {
					m.queue = append(m.queue[:gi:gi], m.queue[gi+1:]...)
				}
				return true
			}
		}
	}
	return false
}

// drop takes an item out of the index.
func (m *model) drop(spec sim.ItemSpec) {
	m.unqueue(spec, len(m.queue))
	delete(m.state, spec)
	delete(m.failures, spec)
	delete(m.current, spec)
}

// expireAll expires every live lease and requeues the items whose
// current lease it was.
func (m *model) expireAll() {
	var requeued []sim.ItemSpec
	for id, s := range m.leases {
		delete(m.leases, id)
		m.st.Expired++
		if m.state[s] == stateLeased && m.current[s] == id {
			m.st.Requeued++
			requeued = append(requeued, s)
		}
	}
	m.push(requeued...)
}

// complete applies a completion for spec under lease id and returns the
// expected acknowledgment (without Next) and the item's fate: "done",
// "failed" or "".
func (m *model) complete(id string, spec sim.ItemSpec, errored bool, results []client.WorkResult) (client.WorkAck, string) {
	_, live := m.leases[id]
	s, known := m.state[spec]
	current := live && s == stateLeased && m.current[spec] == id
	if live {
		delete(m.leases, id)
		m.consumed++
	}
	switch {
	case !known && live: // a lease left on an item that has since failed
		m.st.Duplicates++
		return client.WorkAck{Accepted: true, Duplicate: true}, ""
	case !known:
		return client.WorkAck{}, ""
	case s == stateDone:
		m.st.Duplicates++
		if !errored && !slices.Equal(fromWireResults(results), fromWireResults(resultsFor(spec))) {
			m.st.Mismatches++
		}
		return client.WorkAck{Accepted: true, Duplicate: true}, ""
	case errored || len(results) != 1:
		m.st.Failures++
		if m.failures[spec]++; m.failures[spec] >= maxFailures {
			m.drop(spec)
			return client.WorkAck{Accepted: true}, "failed"
		}
		if current {
			m.st.Requeued++
			delete(m.current, spec)
			m.push(spec)
		}
		return client.WorkAck{Accepted: true}, ""
	}
	m.unqueue(spec, len(m.queue))
	m.state[spec] = stateDone
	delete(m.current, spec)
	m.st.Completed++
	if !current {
		m.st.Stale++
	}
	return client.WorkAck{Accepted: true, Stale: !current}, "done"
}

// liveLeases lists the live lease IDs in a fixed order, so a seed
// replays the same steps.
func (m *model) liveLeases() []string {
	ids := make([]string, 0, len(m.leases))
	for id := range m.leases {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// modelWaiter is one RunItem call in flight.
type modelWaiter struct {
	spec   sim.ItemSpec
	cancel context.CancelFunc
	out    chan outcome
}

// TestCoordinatorModel drives a Coordinator with seeded random
// sequences of RunItem (joins and cancels included), lease attempts
// with an already-passed deadline, forced expiry, completions of every
// kind (success, error, wrong count, duplicate, stale and unknown, with
// and without Next) and Close. It compares every step with the
// reference model and checks the ledger invariants after each.
func TestCoordinatorModel(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		runModel(t, seed, 120)
	}
}

func runModel(t *testing.T, seed uint64, steps int) {
	defer func() {
		if t.Failed() {
			t.Logf("failed with seed %d", seed)
		}
	}()
	c := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Hour})
	defer c.Close()
	m := &model{state: map[sim.ItemSpec]itemState{}, failures: map[sim.ItemSpec]int{},
		current: map[sim.ItemSpec]string{}, leases: map[string]sim.ItemSpec{}}
	rng := num.NewRand(seed)
	specs := []sim.ItemSpec{specN(1), specN(2), specN(3), specN(4), specN(5), specN(6)}
	waiters := map[sim.ItemSpec][]*modelWaiter{}
	var dead []string // expired and completed lease IDs

	lease := func() {
		t.Helper()
		l, ok := tryLease(c, "w")
		if !ok && len(m.queue) > 0 {
			t.Fatalf("no lease granted with %v pending", m.queue)
		}
		if ok {
			if err := m.grant(l.Lease, fromWireItem(l.Item)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for step := 0; step < steps; step++ {
		spec := specs[rng.Intn(len(specs))]
		switch op := rng.Intn(10); {
		case op < 3: // RunItem: a new item, a join, or a done item's result
			ctx, cancel := context.WithCancel(context.Background())
			w := &modelWaiter{spec: spec, cancel: cancel, out: make(chan outcome, 1)}
			go func() {
				res, err := c.RunItem(ctx, spec)
				w.out <- outcome{res, err}
			}()
			if m.state[spec] == stateDone {
				if out := <-w.out; out.err != nil || len(out.res) != 1 {
					t.Fatalf("RunItem on a done item: %+v", out)
				}
				cancel()
				break
			}
			if _, known := m.state[spec]; !known {
				m.push(spec)
			}
			waiters[spec] = append(waiters[spec], w)
			awaitWaiters(t, c, spec, len(waiters[spec]))
		case op < 4: // the oldest waiter on spec gives up
			ws := waiters[spec]
			if len(ws) == 0 {
				break
			}
			ws[0].cancel()
			if out := <-ws[0].out; !errors.Is(out.err, context.Canceled) {
				t.Fatalf("canceled RunItem: %+v", out)
			}
			if waiters[spec] = ws[1:]; len(ws) == 1 && m.state[spec] == statePending {
				m.drop(spec)
			}
		case op < 6:
			lease()
		case op < 7: // forced expiry, then a lease attempt
			dead = append(dead, m.liveLeases()...)
			m.expireAll()
			faultinject.Enable(faultinject.Plan{"dist/lease.expire": {Every: 1}})
			lease()
			faultinject.Disable()
		default: // a completion, mostly under the item's live lease
			id := "bogus"
			if len(dead) > 0 && rng.Bool() {
				id = dead[rng.Intn(len(dead))]
			}
			for _, l := range m.liveLeases() {
				if m.leases[l] == spec && rng.Intn(4) != 0 {
					id = l
				}
			}
			comp := client.WorkCompletion{Lease: id, Item: toWireItem(spec), Worker: "w",
				Results: resultsFor(spec), Next: rng.Bool()}
			switch rng.Intn(5) {
			case 0:
				comp.Results, comp.Error = nil, "boom"
			case 1:
				comp.Results = append(comp.Results, comp.Results[0])
			case 2:
				if m.state[spec] == stateDone {
					comp.Results[0].Mispredicted++
				}
			}
			if _, live := m.leases[id]; live {
				dead = append(dead, id)
			}
			want, fate := m.complete(id, spec, comp.Error != "", comp.Results)
			ack := c.Complete(comp)
			if got := (client.WorkAck{Accepted: ack.Accepted, Duplicate: ack.Duplicate, Stale: ack.Stale}); got != want {
				t.Fatalf("step %d: Complete(%+v) = %+v, want %+v", step, comp, ack, want)
			}
			for _, w := range waiters[spec] {
				if fate == "" {
					break
				}
				out := <-w.out
				if fate == "done" && (out.err != nil || len(out.res) != 1 || out.res[0] != fromWireResults(resultsFor(spec))[0]) ||
					fate == "failed" && (out.err == nil || errors.Is(out.err, ErrClosed)) {
					t.Fatalf("step %d: waiter on a %s item: %+v", step, fate, out)
				}
			}
			if fate != "" {
				delete(waiters, spec)
			}
			switch {
			case ack.Next != nil && !comp.Next:
				t.Fatalf("step %d: Next granted unasked: %+v", step, ack)
			case ack.Next != nil:
				if err := m.grant(ack.Next.Lease, fromWireItem(ack.Next.Item)); err != nil {
					t.Fatalf("step %d: Next: %v", step, err)
				}
			case comp.Next && len(m.queue) > 0:
				t.Fatalf("step %d: no Next granted with %v pending", step, m.queue)
			}
		}
		checkModel(t, c, m, step)
	}

	// Close fails every waiter and grants nothing more.
	c.Close()
	for _, ws := range waiters {
		for _, w := range ws {
			if out := <-w.out; !errors.Is(out.err, ErrClosed) {
				t.Fatalf("waiter after Close: %+v", out)
			}
		}
	}
	if l, ok := tryLease(c, "w"); ok {
		t.Fatalf("closed coordinator granted %+v", l)
	}
	for id, s := range m.leases {
		if ack := c.Complete(client.WorkCompletion{Lease: id, Item: toWireItem(s), Results: resultsFor(s), Next: true}); ack.Next != nil {
			t.Fatalf("closed coordinator granted Next %+v", ack.Next)
		}
	}
}

// checkModel compares the coordinator with the model: its stats, its
// items and live leases, and its pending items' grant order. It also
// checks that the model's counters balance.
func checkModel(t *testing.T, c *Coordinator, m *model, step int) {
	t.Helper()
	if st, want := c.Stats(), m.wantStats(); st != want {
		t.Fatalf("step %d: stats %+v, model %+v", step, st, want)
	}
	if st := m.st; st.Dispatched != uint64(len(m.leases))+st.Expired+m.consumed {
		t.Fatalf("step %d: ledger does not balance: %+v with %d live leases, %d consumed", step, st, len(m.leases), m.consumed)
	}
	order, leases := checkLedger(t, c)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.items) != len(m.state) || len(leases) != len(m.leases) {
		t.Fatalf("step %d: %d items and %d leases, model %d and %d", step, len(c.items), len(leases), len(m.state), len(m.leases))
	}
	for _, it := range c.items {
		if s, ok := m.state[it.spec]; !ok || s != it.state {
			t.Fatalf("step %d: item %v in state %d, model %d", step, it.spec, it.state, s)
		}
	}
	for id, s := range leases {
		if m.leases[id] != s {
			t.Fatalf("step %d: live lease %s on %v, model %v", step, id, s, m.leases[id])
		}
	}
	for _, g := range m.queue {
		in := map[sim.ItemSpec]bool{}
		for _, s := range g {
			in[s] = true
		}
		for range g {
			if len(order) == 0 || !in[order[0]] {
				t.Fatalf("step %d: queue order %v, model groups %v", step, order, m.queue)
			}
			order = order[1:]
		}
	}
}

// checkLedger checks the coordinator's own invariants: each indexed
// item is in exactly one state, queued once while pending, holding
// exactly one live lease while leased and done-signaled once done; a
// live lease that is not its item's current one outlived its item; and
// the counters are consistent. It returns the pending items in grant
// order and the live leases' items.
func checkLedger(t *testing.T, c *Coordinator) ([]sim.ItemSpec, map[string]sim.ItemSpec) {
	t.Helper()
	st := c.Stats()
	if st.Requeued > st.Expired+st.Failures || st.Mismatches > st.Duplicates || st.Stale > st.Completed ||
		uint64(st.Leased) > st.Dispatched {
		t.Fatalf("inconsistent stats %+v", st)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	queued := map[*workItem]int{}
	var order []sim.ItemSpec
	for _, it := range c.queue {
		if it.state == statePending {
			queued[it]++
			order = append(order, it.spec)
		}
	}
	held := map[*workItem]int{}
	leases := map[string]sim.ItemSpec{}
	for id, l := range c.leases {
		switch it := l.item; {
		case it.state == stateLeased && it.lease == id:
			held[it]++
		case it.state != stateDone && it.state != stateFailed:
			t.Fatalf("live lease %s on %v (state %d) is not its current one", id, it.spec, it.state)
		}
		leases[id] = l.item.spec
	}
	for k, it := range c.items {
		done := false
		select {
		case <-it.done:
			done = true
		default:
		}
		if it.key != k || it.state == stateFailed || queued[it] != boolInt(it.state == statePending) ||
			held[it] != boolInt(it.state == stateLeased) || done != (it.state == stateDone) {
			t.Fatalf("item %v (state %d) queued %d times, holding %d leases, done %v",
				it.spec, it.state, queued[it], held[it], done)
		}
	}
	return order, leases
}

// wantStats is the Stats() the model expects: its counters plus the
// item counts by state.
func (m *model) wantStats() client.WorkStats {
	st := m.st
	for _, s := range m.state {
		switch s {
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

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
