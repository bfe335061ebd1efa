package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/num"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	// fleetClients closed-loop clients each run one job at a time;
	// fleetWorkers workers hold one engine slot each. Together they stay
	// within the two CPUs the benchmark is sized for.
	fleetClients = 2
	fleetWorkers = 2
	// fleetPoll is imliworker's shipping idle poll.
	fleetPoll = 50 * time.Millisecond
	// fleetBaseBudget is the smallest job budget; job i of a pass asks
	// for fleetBaseBudget + seed%16 + perm(i), so every job is distinct
	// (no dedup, no store hits) and the seed changes the inputs without
	// changing the amount of work.
	fleetBaseBudget = 2000
	// passTimeout bounds a service run whose jobs never complete, so the
	// run fails instead of blocking.
	passTimeout = 150 * time.Second
)

// fleetSpecs returns the pass's job submissions.
func fleetSpecs(seed int64, n int) []client.Spec {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng := num.NewRand(uint64(seed) ^ 0xF1EE7)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := make([]client.Spec, n)
	for i, k := range perm {
		out[i] = client.Spec{Type: client.JobSuite, Config: fleetConfig, Suite: "cbp4",
			Budget: fleetBaseBudget + int(uint64(seed)%16) + k}
	}
	return out
}

// runFleetJobs drives the service stack with two closed-loop clients
// running one distinct gshare/cbp4 suite job at a time. Simulation is
// trivial, so the journal, the lease/complete wire round trips, SSE and
// job scheduling dominate.
func runFleetJobs(p *pass) error {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	s, err := startService(ctx, p.tr, p.Dir, sim.EngineConfig{})
	if err != nil {
		return err
	}
	defer s.close()
	specs := fleetSpecs(p.Seed, p.sc.fleetJobs)
	p.ready()

	root := p.tr.begin(0, "pass")
	jobs := s.run(ctx, root.id, specs, fleetClients)
	wall := root.end().Seconds()
	p.rep.WallS, p.rep.JobsS = wall, wall
	if err := s.close(); err != nil {
		return fmt.Errorf("stopping the service: %w", err)
	}

	suite := workload.Suites()["cbp4"]
	for i, j := range jobs {
		p.rep.JobMS = append(p.rep.JobMS, j.ms)
		switch {
		case j.err != nil:
			p.rep.Failed++
			p.problem("fleet job %d: %v", i, j.err)
		case j.res.Suite == nil || len(j.res.Suite.Results) != len(suite):
			p.rep.Failed++
			p.problem("fleet job %d: incomplete result", i)
		default:
			p.addTraceResults(j.res.Suite.Results)
		}
	}
	p.rep.Sim.add(s.coordEng.Stats())
	p.rep.Sim.add(s.workerEng.Stats())
	if p.rep.Failed > 0 {
		return nil
	}
	if p.Check {
		// Every job's first trace against the plain Feed path.
		for i, j := range jobs {
			got := j.res.Suite.Results[0]
			want, err := sim.RunBenchmark(fleetConfig, suite[0], specs[i].Budget)
			if err != nil || got.Instructions != want.Instructions || got.Records != want.Records ||
				got.Conditionals != want.Conditionals || got.Mispredicted != want.Mispredicted {
				p.problem("fleet job %d: %s differs from a direct feed (%v)", i, got.Text, err)
			}
		}
	}
	if p.tr == nil {
		return nil
	}
	s.layers(p, jobs)
	p.layer("share.wire", s.wireMS()/(fleetWorkers*wall*1e3))
	var results []sim.Result
	for _, j := range jobs {
		for _, r := range j.res.Suite.Results {
			results = append(results, sim.Result{Trace: r.Trace, Predictor: r.Predictor,
				Instructions: r.Instructions, Records: r.Records, Conditionals: r.Conditionals, Mispredicted: r.Mispredicted})
		}
	}
	return p.probe(probeInput{
		configs: []string{fleetConfig}, benches: probeBenches(suite), budget: specs[0].Budget,
		want: results[:len(suite)], results: results, jobs: specs, journaled: 3 * len(specs),
		engines: []*sim.Engine{s.workerEng}, passTime: wall, meanBudget: specs[0].Budget, lanes: fleetWorkers,
	})
}

// service is the imlid -coordinator stack in process: a serve.Server
// with an fsynced journal, a dist.Coordinator as its engine's Remote,
// and fleetWorkers workers (imliworker's poll, one engine slot each) on
// a real 127.0.0.1 listener. With a tracer, the workers are the
// benchmark's own loop mirroring dist.Worker.Run, so each lease, item
// and completion gets a span, and the clients count their HTTP
// requests.
type service struct {
	tr        *tracer
	url       string
	jnl       *journal.Journal
	coord     *dist.Coordinator
	coordEng  *sim.Engine
	workerEng *sim.Engine
	srv       *serve.Server
	hs        *http.Server
	stop      context.CancelFunc
	workers   sync.WaitGroup
	transport countingTransport
	// emptyPolls and calls count what the traced workers did.
	emptyPolls, calls atomic.Int64
	closeOnce         sync.Once
	closeErr          error
}

// startService starts the stack with the given coordinator engine
// configuration (its Remote is the coordinator). Close it when done.
func startService(ctx context.Context, tr *tracer, dir string, eng sim.EngineConfig) (*service, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	jnl, err := journal.Open(filepath.Join(dir, "imlid.journal"))
	if err != nil {
		ln.Close()
		return nil, err
	}
	s := &service{tr: tr, url: "http://" + ln.Addr().String(), jnl: jnl, coord: dist.NewCoordinator(dist.CoordinatorConfig{})}
	eng.Remote = s.coord
	s.coordEng = sim.NewEngine(eng)
	s.srv = serve.NewServer(serve.Config{Engine: s.coordEng, Journal: jnl, WorkHandler: s.coord.Handler()})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { _ = s.hs.Serve(ln) }()

	// Like imliworker: one engine shared by the worker slots.
	s.workerEng = sim.NewEngine(sim.EngineConfig{Workers: fleetWorkers})
	wctx, stop := context.WithCancel(ctx)
	s.stop = stop
	for i := 0; i < fleetWorkers; i++ {
		name := fmt.Sprintf("bench-%d", i)
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			if tr == nil {
				w := &dist.Worker{Client: s.client(), Engine: s.workerEng, Name: name, Poll: fleetPoll}
				_ = w.Run(wctx)
				return
			}
			s.tracedWorker(wctx, name)
		}()
	}
	return s, nil
}

// close drains the server, stops the workers and releases the listener,
// the coordinator and the journal. It is idempotent.
func (s *service) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.closeErr = s.srv.Drain(ctx)
		s.stop()
		s.workers.Wait()
		_ = s.hs.Close()
		s.coord.Close()
		if err := s.jnl.Close(); s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// client returns a client of the service; traced, it counts requests.
func (s *service) client() *client.Client {
	c := client.New(s.url)
	if s.tr != nil {
		c.HTTPClient = &http.Client{Transport: &s.transport}
	}
	return c
}

// serviceJob is one job's outcome as its client saw it.
type serviceJob struct {
	res  client.Result
	view client.Job
	ms   float64
	err  error
}

// run submits specs from closed-loop clients, each running one job at a
// time, and returns the jobs' outcomes in spec order.
func (s *service) run(ctx context.Context, parent int64, specs []client.Spec, clients int) []serviceJob {
	out := make([]serviceJob, len(specs))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := s.client()
			for i := c; i < len(specs); i += clients {
				span := s.tr.begin(parent, "job")
				out[i] = s.runJob(ctx, cl, span.id, specs[i])
				out[i].ms = ms(span.end())
			}
		}(c)
	}
	wg.Wait()
	return out
}

// runJob is client.Run, split into its three calls so a traced run can
// time each: Submit, Wait on the event stream, Result.
func (s *service) runJob(ctx context.Context, cl *client.Client, parent int64, spec client.Spec) serviceJob {
	if s.tr == nil {
		res, err := cl.Run(ctx, spec)
		return serviceJob{res: res, err: err}
	}
	span := s.tr.begin(parent, "serve.submit")
	j, err := cl.Submit(ctx, spec)
	span.end()
	if err != nil {
		return serviceJob{err: err}
	}
	span = s.tr.begin(parent, "client.wait")
	final, err := cl.Wait(ctx, j.ID, nil)
	span.end()
	final.Dedup = j.Dedup
	if err == nil && final.Status != client.StatusDone {
		err = fmt.Errorf("job %s %s: %s", final.ID, final.Status, final.Error)
	}
	if err != nil {
		return serviceJob{view: final, err: err}
	}
	span = s.tr.begin(parent, "client.result")
	res, err := cl.Result(ctx, final.ID)
	span.end()
	return serviceJob{res: res, view: final, err: err}
}

// tracedWorker mirrors dist.Worker.Run — LeaseWork, Engine.RunItem,
// CompleteWork, with the same idle poll — with a span around each call.
func (s *service) tracedWorker(ctx context.Context, name string) {
	cl := s.client()
	for ctx.Err() == nil {
		span := s.tr.begin(0, "dist.lease")
		lease, ok, err := cl.LeaseWork(ctx, name)
		span.end()
		s.calls.Add(1)
		if err != nil || !ok {
			if ctx.Err() != nil {
				return
			}
			s.emptyPolls.Add(1)
			span = s.tr.begin(0, "dist.poll_sleep")
			sleepCtx(ctx, fleetPoll)
			span.end()
			continue
		}
		it := lease.Item
		span = s.tr.begin(0, "sim.item")
		res, err := s.workerEng.RunItem(ctx, sim.ItemSpec{Config: it.Config, Suite: it.Suite, Bench: it.Bench, Seed: it.Seed,
			Budget: it.Budget, Shard: it.Shard, Shards: it.Shards, Warmup: it.Warmup, Exact: it.Exact})
		span.end()
		comp := client.WorkCompletion{Lease: lease.Lease, Item: it, Worker: name}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			comp.Error = err.Error()
		}
		for _, r := range res {
			comp.Results = append(comp.Results, client.WorkResult{Trace: r.Trace, Predictor: r.Predictor,
				Instructions: r.Instructions, Records: r.Records, Conditionals: r.Conditionals, Mispredicted: r.Mispredicted})
		}
		span = s.tr.begin(0, "dist.complete")
		// An undeliverable completion is left to lease expiry, as
		// dist.Worker does.
		_, _ = cl.CompleteWork(ctx, comp)
		span.end()
		s.calls.Add(1)
	}
}

// layers sets the traced service's serve, dist and client metrics.
func (s *service) layers(p *pass, jobs []serviceJob) {
	st := s.coord.Stats()
	p.layer("dist.requeued", float64(st.Requeued))
	p.layer("dist.expired", float64(st.Expired))
	p.layer("dist.duplicates", float64(st.Duplicates))
	p.layer("dist.mismatches", float64(st.Mismatches))
	lease := s.tr.durations("dist.lease")
	p.layer("dist.lease_ms_p50", median(lease))
	p.layer("dist.lease_ms_p99", percentile(lease, 99))
	p.layer("dist.complete_ms_p50", median(s.tr.durations("dist.complete")))
	p.layer("dist.run_item_ms_p50", median(s.tr.durations("sim.item")))
	p.layer("dist.empty_polls", float64(s.emptyPolls.Load()))
	p.layer("dist.poll_sleep_s", sum(s.tr.durations("dist.poll_sleep"))/1e3)

	var queued, ran []float64
	dedup := 0
	for _, j := range jobs {
		v := j.view
		if v.Started.IsZero() || v.Finished.IsZero() {
			continue
		}
		queued = append(queued, ms(v.Started.Sub(v.Created)))
		ran = append(ran, ms(v.Finished.Sub(v.Started)))
		if v.Dedup {
			dedup++
		}
	}
	p.layer("serve.submit_ms_p50", median(s.tr.durations("serve.submit")))
	p.layer("serve.queue_wait_ms_p50", median(queued))
	p.layer("serve.queue_wait_ms_p99", percentile(queued, 99))
	p.layer("serve.run_ms_p50", median(ran))
	p.layer("serve.dedup_hits", float64(dedup))
	p.layer("client.wait_ms_p50", median(s.tr.durations("client.wait")))
	// Three calls per job (submit, event stream, result) plus every
	// lease and completion the workers made; anything beyond is a retry
	// or reconnect.
	calls := 3*int64(len(jobs)) + s.calls.Load()
	p.layer("client.retries", float64(s.transport.n.Load()-calls))
}

// wireMS is the traced service's total round-trip time in ms: leases,
// completions, submissions and result fetches.
func (s *service) wireMS() float64 {
	total := 0.0
	for _, name := range []string{"dist.lease", "dist.complete", "serve.submit", "client.result"} {
		total += sum(s.tr.durations(name))
	}
	return total
}

// countingTransport counts HTTP requests, so retries show as requests
// beyond the calls the benchmark made.
type countingTransport struct {
	n atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
