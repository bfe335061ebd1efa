// Package serve implements the imlid evaluation service (DESIGN.md
// §9): a long-running HTTP server that accepts simulation jobs —
// predictor configuration × suite/benchmark × budget, plus
// experiment-report jobs — deduplicates identical submissions,
// schedules them on a bounded worker pool backed by one shared
// sim.Engine (one stream cache, one result store, shared snapshot
// resume), and streams per-job progress over SSE. The wire types live
// in the public repro/client package; cmd/imlid is the daemon and
// docs/API.md the endpoint reference.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/experiments"
	"repro/internal/journal"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config sizes a Server.
type Config struct {
	// Engine executes every job's simulation work; nil builds a
	// default engine (unsharded, uncached, GOMAXPROCS workers). The
	// engine's Workers bound is engine-wide, so concurrent jobs share
	// it instead of oversubscribing the machine.
	Engine *sim.Engine
	// JobWorkers bounds concurrently running jobs; <=0 means 2.
	// Parallelism inside a job comes from the engine pool; multiple
	// job workers keep cache-hit jobs from queuing behind long
	// simulations.
	JobWorkers int
	// QueueDepth bounds queued (submitted, not yet running) jobs;
	// <=0 means 1024. A full queue sheds submissions with 429 +
	// Retry-After.
	QueueDepth int
	// DefaultBudget fills Spec.Budget when a submission leaves it 0;
	// <=0 means the experiment harness default (250000).
	DefaultBudget int
	// KeepJobs bounds how many finished jobs the in-memory index
	// retains (<=0 means 1000); the oldest finished jobs beyond it are
	// evicted — they read as unknown afterwards, but their simulated
	// work survives in the engine's result store, so resubmitting is
	// incremental. Without a bound, a long-running daemon's job index,
	// event logs, and result payloads would grow forever.
	KeepJobs int
	// Journal, when non-nil, makes the server crash-safe (DESIGN.md
	// §12): every accepted job is journaled before its submission is
	// acknowledged, lifecycle transitions follow, and NewServer
	// re-queues the journal's incomplete jobs under their original IDs
	// so a killed daemon resumes where it stopped. The caller owns the
	// journal's lifetime (open before NewServer, close after Drain).
	Journal *journal.Journal
	// RatePerSec, when > 0, enables the per-caller token-bucket rate
	// limit on the /v1 API: each caller (remote address) accrues this
	// many requests per second up to RateBurst (<=0 means
	// ceil(RatePerSec)); past it, requests get 429 + Retry-After.
	// /healthz is exempt — load probes must see drain state.
	RatePerSec float64
	RateBurst  int
	// WorkHandler, when non-nil, is mounted at /v1/work/ — the
	// coordinator's worker-pull queue API (internal/dist, DESIGN.md
	// §14). It bypasses the rate limit: workers are trusted
	// infrastructure, and shedding their lease requests would stall
	// every job whose items they execute.
	WorkHandler http.Handler
}

// Server owns the job index, the dedup table, and the worker pool.
// Create one with NewServer, expose it with Handler (cmd/imlid), and
// stop it with Drain.
type Server struct {
	engine        *sim.Engine
	defaultBudget int
	keepJobs      int
	suites        map[string][]workload.Benchmark
	limiter       *limiter
	workHandler   http.Handler

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job
	byKey    map[string]*job
	nextID   int
	draining bool
	// jnl is the job journal (nil disables journaling). All appends
	// happen under s.mu, so the accepted → terminal order on disk
	// matches the order the server decided it, and compaction
	// (gather + Rewrite) cannot interleave with a transition.
	jnl       *journal.Journal
	terminals int

	queue chan *job
	wg    sync.WaitGroup
}

// compactEvery is how many journaled terminal transitions trigger a
// compaction: the journal is rewritten to just the live (unfinished)
// jobs, so it stays proportional to in-flight work instead of total
// history.
const compactEvery = 128

// NewServer returns a running server: its job workers are started and
// it is ready to accept submissions. Callers must eventually Drain it.
func NewServer(cfg Config) *Server {
	if cfg.Engine == nil {
		cfg.Engine = sim.NewEngine(sim.EngineConfig{})
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.DefaultBudget <= 0 {
		cfg.DefaultBudget = experiments.DefaultParams().Budget
	}
	if cfg.KeepJobs <= 0 {
		cfg.KeepJobs = 1000
	}
	var pending []journal.Entry
	if cfg.Journal != nil {
		pending = cfg.Journal.Pending()
	}
	depth := cfg.QueueDepth
	if len(pending) > depth {
		// Replayed jobs must all fit; a journal from a deeper-queued
		// previous configuration must not deadlock startup.
		depth = len(pending)
	}
	s := &Server{
		engine:        cfg.Engine,
		defaultBudget: cfg.DefaultBudget,
		keepJobs:      cfg.KeepJobs,
		suites:        workload.Suites(),
		jobs:          map[string]*job{},
		byKey:         map[string]*job{},
		jnl:           cfg.Journal,
		workHandler:   cfg.WorkHandler,
		queue:         make(chan *job, depth),
	}
	if cfg.RatePerSec > 0 {
		s.limiter = newLimiter(cfg.RatePerSec, cfg.RateBurst)
	}
	s.replay(pending)
	for i := 0; i < cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// replay re-queues the journal's incomplete jobs under their original
// IDs — a client that submitted before the crash can keep waiting on
// the same job ID across the restart. Specs are re-normalized; one
// that no longer validates (the catalog changed between runs) is
// journaled failed instead of queued. Runs before the workers start,
// so no lock is needed beyond the journal's own.
func (s *Server) replay(pending []journal.Entry) {
	for _, e := range pending {
		if n, err := strconv.Atoi(strings.TrimPrefix(e.ID, "j")); err == nil && n > s.nextID {
			// Fresh submissions continue the ID sequence past every
			// replayed job.
			s.nextID = n
		}
		spec, err := s.normalize(e.Spec)
		if err != nil {
			if s.jnl != nil {
				_ = s.jnl.Append(journal.Entry{Kind: journal.KindFailed, ID: e.ID,
					Error: "replay: " + err.Error()})
			}
			continue
		}
		j := newJob(e.ID, spec, time.Now())
		j.replayed = true
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		s.byKey[dedupKey(spec)] = j
		s.queue <- j
	}
}

// Engine returns the engine backing the server's jobs.
func (s *Server) Engine() *sim.Engine { return s.engine }

// dedupKey canonicalizes a normalized spec. Specs are normalized
// before keying (budget defaulted), so two submissions that would
// simulate the same thing — and only those — share a key; the store's
// JSON-keying lesson (DESIGN.md §5) applies: every field boundary must
// survive encoding.
func dedupKey(spec client.Spec) string {
	return fmt.Sprintf("%q|%q|%q|%q|%q|%d",
		spec.Type, spec.Config, spec.Suite, spec.Bench, spec.Experiment, spec.Budget)
}

// normalize validates a submission and fills defaults. It returns the
// canonical spec every identical submission maps to.
func (s *Server) normalize(spec client.Spec) (client.Spec, error) {
	if spec.Budget < 0 {
		return spec, fmt.Errorf("budget must be >= 0, got %d", spec.Budget)
	}
	if spec.Budget == 0 {
		spec.Budget = s.defaultBudget
	}
	switch spec.Type {
	case client.JobSuite:
		if spec.Bench != "" || spec.Experiment != "" {
			return spec, fmt.Errorf("suite jobs take config and suite only")
		}
		if _, ok := s.suites[spec.Suite]; !ok {
			return spec, fmt.Errorf("unknown suite %q (want cbp4 or cbp3)", spec.Suite)
		}
		if err := predictor.Check(spec.Config); err != nil {
			return spec, err
		}
	case client.JobBench:
		if spec.Suite != "" || spec.Experiment != "" {
			return spec, fmt.Errorf("bench jobs take config and bench only")
		}
		if _, err := workload.ByName(spec.Bench); err != nil {
			return spec, err
		}
		if err := predictor.Check(spec.Config); err != nil {
			return spec, err
		}
	case client.JobExperiment:
		if spec.Config != "" || spec.Suite != "" || spec.Bench != "" {
			return spec, fmt.Errorf("experiment jobs take an experiment ID only")
		}
		if _, err := experiments.ByID(spec.Experiment); err != nil {
			return spec, err
		}
	default:
		return spec, fmt.Errorf("unknown job type %q (want suite, bench, or experiment)", spec.Type)
	}
	return spec, nil
}

// Submit validates and enqueues a job. An identical in-flight or
// completed submission is deduplicated: the existing job is returned
// with Dedup set and no new engine run starts. Failed and canceled
// jobs do not capture their spec — resubmitting retries. A draining
// server or a full queue rejects the submission.
func (s *Server) Submit(spec client.Spec) (client.Job, error) {
	spec, err := s.normalize(spec)
	if err != nil {
		return client.Job{}, &httpError{code: 400, msg: err.Error()}
	}
	key := dedupKey(spec)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return client.Job{}, &httpError{code: 503, msg: "server is draining"}
	}
	if dup, ok := s.byKey[key]; ok {
		v := dup.view()
		alive := !v.Status.Finished() && dup.ctx.Err() == nil
		if alive || v.Status == client.StatusDone {
			s.mu.Unlock()
			v.Dedup = true
			return v, nil
		}
		// The job failed, was canceled, or its context is already
		// canceled ahead of the worker observing it: treat the key as
		// absent so this resubmission retries instead of latching onto
		// a dead job.
		delete(s.byKey, key)
	}
	s.nextID++
	j := newJob("j"+strconv.Itoa(s.nextID), spec, time.Now())
	// Write-ahead: the acceptance is durable before the submission is
	// acknowledged or enqueued, so a crash at any later point replays
	// the job. A journal that cannot record the job rejects the
	// submission — acknowledging unjournaled work would silently drop
	// the crash-safety contract.
	if s.jnl != nil {
		if err := s.jnl.Append(journal.Entry{Kind: journal.KindAccepted, ID: j.id, Spec: spec}); err != nil {
			s.mu.Unlock()
			return client.Job{}, &httpError{code: 503, retryAfter: 1,
				msg: "journal write failed: " + err.Error()}
		}
	}
	select {
	case s.queue <- j:
	default:
		if s.jnl != nil {
			// The job was journaled accepted but never ran; a terminal
			// record keeps it from replaying as a phantom after a crash.
			_ = s.jnl.Append(journal.Entry{Kind: journal.KindCanceled, ID: j.id})
		}
		s.mu.Unlock()
		return client.Job{}, &httpError{code: 429, retryAfter: 1, msg: "job queue is full"}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.byKey[key] = j
	s.mu.Unlock()
	return j.view(), nil
}

// Job returns the view of one job by ID.
func (s *Server) Job(id string) (client.Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return client.Job{}, false
	}
	return j.view(), true
}

// Jobs returns every job, newest first.
func (s *Server) Jobs() []client.Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]client.Job, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		out = append(out, s.order[i].view())
	}
	return out
}

// Cancel cancels a queued or running job (a no-op on finished ones)
// and reports whether the ID exists. The job transitions to canceled
// when its worker observes the cancellation; a queued job transitions
// immediately when a worker picks it up.
func (s *Server) Cancel(id string) (client.Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return client.Job{}, false
	}
	j.cancel()
	return j.view(), true
}

// Result returns a finished job's result payload.
func (s *Server) Result(id string) (client.Result, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return client.Result{}, &httpError{code: 404, msg: "unknown job " + id}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.result != nil:
		return *j.result, nil
	case j.status.Finished():
		return client.Result{}, &httpError{code: 409, msg: fmt.Sprintf("job %s %s: %s", id, j.status, j.errMsg)}
	default:
		return client.Result{}, &httpError{code: 409, msg: fmt.Sprintf("job %s is %s; result not available yet", id, j.status)}
	}
}

// Stats returns cumulative engine counters and job counts.
func (s *Server) Stats() client.Stats {
	st := s.engine.Stats()
	out := client.Stats{
		Jobs:             map[client.Status]int{},
		Simulated:        st.Simulated,
		CacheHits:        st.CacheHits,
		RecordsSimulated: st.RecordsSimulated,
		Resumed:          st.Resumed,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.order {
		out.Jobs[j.view().Status]++
	}
	return out
}

// Catalog returns what this server can simulate.
func (s *Server) Catalog() client.Catalog {
	names := predictor.Names()
	cat := client.Catalog{
		Predictors:    names,
		Suites:        map[string][]string{},
		DefaultBudget: s.defaultBudget,
	}
	for name, benches := range s.suites {
		bs := make([]string, len(benches))
		for i, b := range benches {
			bs[i] = b.Name
		}
		cat.Suites[name] = bs
	}
	for _, e := range experiments.All() {
		cat.Experiments = append(cat.Experiments, client.CatalogExperiment{ID: e.ID, Title: e.Title})
	}
	return cat
}

// Drain stops the server gracefully: new submissions are rejected
// with 503, queued and running jobs are given until ctx's deadline to
// finish (their results land in the store as usual), and past the
// deadline every outstanding job is canceled at its next work-item
// boundary. Drain returns when all job workers have exited — nil if
// every job finished, ctx's error if the deadline forced cancellation.
// Draining twice is safe; the second call just waits.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.order {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// worker runs queued jobs until the queue is closed by Drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// dropKey removes a failed or canceled job from the dedup index so an
// identical resubmission starts a fresh run.
func (s *Server) dropKey(j *job) {
	key := dedupKey(j.spec)
	s.mu.Lock()
	if s.byKey[key] == j {
		delete(s.byKey, key)
	}
	s.mu.Unlock()
}

// evictFinished trims the job index to the KeepJobs retention bound:
// the oldest finished jobs beyond it are forgotten (their cached work
// survives in the store). Called after every job completes, so the
// index — and with it every job's event log and result payload — stays
// bounded in a long-running daemon.
func (s *Server) evictFinished() {
	s.mu.Lock()
	defer s.mu.Unlock()
	finished := 0
	for _, j := range s.order {
		if j.view().Status.Finished() {
			finished++
		}
	}
	drop := finished - s.keepJobs
	if drop <= 0 {
		return
	}
	kept := s.order[:0]
	for _, j := range s.order {
		if drop > 0 && j.view().Status.Finished() {
			delete(s.jobs, j.id)
			if key := dedupKey(j.spec); s.byKey[key] == j {
				delete(s.byKey, key)
			}
			drop--
			continue
		}
		kept = append(kept, j)
	}
	// Release the evicted tail for the garbage collector.
	for i := len(kept); i < len(s.order); i++ {
		s.order[i] = nil
	}
	s.order = kept
}

// journalTerminal durably ends a job's journal lifecycle and compacts
// the journal every compactEvery terminals: under s.mu the live
// (unfinished) jobs are gathered and the file atomically rewritten to
// just their accepted records. The append is best-effort — at this
// point the job already finished in memory and its simulated work is
// in the engine store; the worst a lost terminal costs is one cheap
// (fully cached) replay after the next restart.
func (s *Server) journalTerminal(j *job, kind journal.Kind, errMsg string) {
	if s.jnl == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.jnl.Append(journal.Entry{Kind: kind, ID: j.id, Error: errMsg})
	s.terminals++
	if s.terminals < compactEvery {
		return
	}
	s.terminals = 0
	var live []journal.Entry
	for _, o := range s.order {
		if !o.view().Status.Finished() {
			live = append(live, journal.Entry{Kind: journal.KindAccepted, ID: o.id, Spec: o.spec})
		}
	}
	_ = s.jnl.Rewrite(live)
}

// runJob executes one job on the shared engine and finishes it with a
// terminal status. A panic inside a job (a bug, not a load condition)
// fails that job instead of the whole service.
func (s *Server) runJob(j *job) {
	defer s.evictFinished()
	if j.ctx.Err() != nil || !j.setRunning(time.Now()) {
		j.finish(client.StatusCanceled, "canceled while queued", nil, time.Now())
		s.dropKey(j)
		s.journalTerminal(j, journal.KindCanceled, "")
		return
	}
	defer func() {
		if r := recover(); r != nil {
			j.finish(client.StatusFailed, fmt.Sprintf("panic: %v", r), nil, time.Now())
			s.dropKey(j)
			s.journalTerminal(j, journal.KindFailed, fmt.Sprintf("panic: %v", r))
		}
	}()
	res, err := s.simulate(j)
	switch {
	case j.ctx.Err() != nil:
		j.finish(client.StatusCanceled, "canceled", nil, time.Now())
		s.dropKey(j)
		s.journalTerminal(j, journal.KindCanceled, "")
	case err != nil:
		j.finish(client.StatusFailed, err.Error(), nil, time.Now())
		s.dropKey(j)
		s.journalTerminal(j, journal.KindFailed, err.Error())
	default:
		j.finish(client.StatusDone, "", res, time.Now())
		s.journalTerminal(j, journal.KindDone, "")
	}
}

// simulate runs the job's spec on the shared engine and builds its
// result payload.
func (s *Server) simulate(j *job) (*client.Result, error) {
	spec := j.spec
	onItem := func(ev sim.ItemEvent) {
		j.progress(client.Progress{Trace: ev.Trace, Shard: ev.Shard,
			Done: ev.Done, Total: ev.Total, Cached: ev.Cached})
	}
	switch spec.Type {
	case client.JobSuite, client.JobBench:
		benches := s.suites[spec.Suite]
		scope := spec.Suite
		if spec.Type == client.JobBench {
			b, err := workload.ByName(spec.Bench)
			if err != nil {
				return nil, err
			}
			benches = []workload.Benchmark{b}
			// Key the store by the benchmark's home suite, like
			// `imlisim -all-configs -bench`: bench-job cache entries are
			// then shared with full-suite runs of the same engine
			// geometry.
			scope = b.Suite
		}
		builder := func() predictor.Predictor { return predictor.MustNew(spec.Config) }
		run, err := s.engine.RunSuiteContext(j.ctx, builder, spec.Config, scope, benches, spec.Budget, onItem)
		if err != nil {
			return nil, err
		}
		return &client.Result{Type: spec.Type, Suite: suiteResult(run)}, nil
	case client.JobExperiment:
		e, err := experiments.ByID(spec.Experiment)
		if err != nil {
			return nil, err
		}
		// A per-job runner over the shared engine: progress lines land
		// in this job's event log, while the engine's store and stream
		// cache still deduplicate across jobs at shard granularity.
		runner := experiments.NewRunner(experiments.Params{
			Budget: spec.Budget, Engine: s.engine, Context: j.ctx, Progress: j,
		})
		rep := e.Run(runner)
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		return &client.Result{Type: spec.Type, Report: &client.Report{
			ID: rep.ID, Title: rep.Title, Text: rep.Text, Values: rep.Values,
		}}, nil
	default:
		return nil, fmt.Errorf("unknown job type %q", spec.Type)
	}
}

// suiteResult converts an engine SuiteRun into the wire payload,
// rendering each line exactly as imlisim prints it (sim.FormatResult /
// sim.FormatSuiteLine — the same format strings, so equality is
// structural, not a convention).
func suiteResult(run sim.SuiteRun) *client.SuiteResult {
	out := &client.SuiteResult{
		Config: run.Config, Suite: run.Suite,
		RanShards: run.RanShards, CachedShards: run.CachedShards,
		AvgMPKI: run.AvgMPKI(), Text: sim.FormatSuiteLine(run),
	}
	for _, r := range run.Results {
		out.Results = append(out.Results, client.TraceResult{
			Trace: r.Trace, Predictor: r.Predictor,
			Instructions: r.Instructions, Records: r.Records,
			Conditionals: r.Conditionals, Mispredicted: r.Mispredicted,
			MPKI: r.MPKI(), Text: sim.FormatResult(r),
		})
	}
	return out
}
