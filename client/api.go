// Package client is the Go client for the imlid evaluation service
// (cmd/imlid), and the home of the service's wire types: job
// specifications, job views, progress events, and result payloads.
// The server side (internal/serve) marshals exactly these types, so a
// program importing only this package can submit simulation jobs,
// stream their progress, and read their results without reaching into
// the repository's internals.
//
// A minimal round trip:
//
//	c := client.New("http://localhost:8327")
//	res, err := c.Run(ctx, client.Spec{
//		Type:   client.JobSuite,
//		Config: "tage-gsc+imli",
//		Suite:  "cbp4",
//		Budget: 250000,
//	})
//	if err != nil { ... }
//	fmt.Println(res.Suite.Text) // the exact line imlisim would print
//
// See docs/API.md for the HTTP surface and DESIGN.md §9 for the
// service architecture.
package client

import "time"

// MaxRequestBytes bounds every JSON request body the service reads
// (POST /v1/jobs, /v1/work/lease and /v1/work/complete); a larger body
// is answered 413. Real bodies are a few hundred bytes: the largest, a
// work completion, carries one result.
const MaxRequestBytes = 1 << 20

// ConnTimeout bounds how long the service's HTTP servers (imlid's API
// and the coordinator's work queue) wait on a connection between
// requests: for a request's headers to arrive, and for the next request
// on a kept-alive connection. A client that trickles its headers is cut
// off instead of holding a connection and a goroutine forever. Bodies
// are not bounded in time: an event stream (GET /v1/jobs/{id}/events)
// lasts as long as its job.
const ConnTimeout = 30 * time.Second

// JobType selects what a job simulates.
type JobType string

// The job types the service accepts.
const (
	// JobSuite runs one predictor configuration over a whole suite —
	// the service-side equivalent of `imlisim -predictor=C -suite=S`.
	JobSuite JobType = "suite"
	// JobBench runs one predictor configuration over a single
	// benchmark through the engine — the service-side equivalent of
	// `imlisim -predictor=C -bench=B`.
	JobBench JobType = "bench"
	// JobExperiment reproduces one paper artifact by experiment ID —
	// the service-side equivalent of `imlireport -out=- -exp=ID`.
	JobExperiment JobType = "experiment"
)

// Spec is a job submission: what to simulate. Identical specs —
// after the server fills Budget with its default when 0 — are
// deduplicated: submitting a spec that matches a queued, running, or
// completed job returns that job instead of starting a new run.
type Spec struct {
	// Type selects the job kind; exactly the fields that kind names
	// below must be set.
	Type JobType `json:"type"`
	// Config is the predictor configuration registry name (suite and
	// bench jobs), e.g. "tage-gsc+imli".
	Config string `json:"config,omitempty"`
	// Suite is the benchmark suite name, "cbp4" or "cbp3" (suite jobs).
	Suite string `json:"suite,omitempty"`
	// Bench is a single benchmark name, e.g. "SPEC2K6-12" (bench jobs).
	Bench string `json:"bench,omitempty"`
	// Experiment is a paper-artifact experiment ID, e.g. "table1"
	// (experiment jobs).
	Experiment string `json:"experiment,omitempty"`
	// Budget is the branch-record budget per trace; 0 means the
	// server's default budget (its -budget flag).
	Budget int `json:"budget,omitempty"`
}

// Status is a job's lifecycle state.
type Status string

// The job lifecycle: queued → running → done | failed | canceled.
const (
	// StatusQueued means the job waits for a job-worker slot.
	StatusQueued Status = "queued"
	// StatusRunning means a worker is simulating the job.
	StatusRunning Status = "running"
	// StatusDone means the job finished and its result is available.
	StatusDone Status = "done"
	// StatusFailed means the job stopped with an error (see Job.Error).
	StatusFailed Status = "failed"
	// StatusCanceled means the job was canceled (DELETE, or a server
	// drain deadline) before completing.
	StatusCanceled Status = "canceled"
)

// Finished reports whether the status is terminal.
func (s Status) Finished() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Job is the service's view of one submitted job.
type Job struct {
	// ID addresses the job in every other endpoint.
	ID string `json:"id"`
	// Spec is the normalized submission (Budget filled in).
	Spec Spec `json:"spec"`
	// Status is the current lifecycle state.
	Status Status `json:"status"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Dedup is set on submit responses when the spec matched an
	// existing job and no new run was started.
	Dedup bool `json:"dedup,omitempty"`
	// Replayed is set on jobs the server recovered from its job
	// journal after a restart: the job was accepted before the crash
	// and re-queued on startup under its original ID.
	Replayed bool `json:"replayed,omitempty"`
	// Done and Total count engine work items (benchmark shards)
	// completed versus scheduled; Total is 0 until known.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Created, Started, and Finished stamp the lifecycle transitions;
	// a zero time means the transition has not happened yet.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// Event is one server-sent progress event on a job's event stream.
type Event struct {
	// Type is "status" (lifecycle transition, Job set), "progress"
	// (engine work item completed, Progress set), "log" (a progress
	// line as the CLIs print it, Line set), or "done" (terminal, Job
	// set; always the final event).
	Type string `json:"type"`
	// Job is the job view at the time of a status/done event.
	Job *Job `json:"job,omitempty"`
	// Progress details a completed engine work item.
	Progress *Progress `json:"progress,omitempty"`
	// Line is one human-readable progress line (log events).
	Line string `json:"line,omitempty"`
}

// Progress reports one completed engine work item (one shard of one
// benchmark) of a running job.
type Progress struct {
	// Trace is the benchmark simulated and Shard its shard index.
	Trace string `json:"trace"`
	Shard int    `json:"shard"`
	// Done and Total count work items within the job.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Cached reports the item was served from the result store.
	Cached bool `json:"cached"`
}

// Result is a finished job's payload; exactly one of Suite and Report
// is set, matching the job type (Suite serves both suite and bench
// jobs).
type Result struct {
	// Type echoes the job type.
	Type JobType `json:"type"`
	// Suite is the simulation outcome of suite and bench jobs.
	Suite *SuiteResult `json:"suite,omitempty"`
	// Report is the rendered artifact of experiment jobs.
	Report *Report `json:"report,omitempty"`
}

// SuiteResult is the outcome of a suite or bench job: per-trace
// counters plus the exact textual rendering imlisim prints.
type SuiteResult struct {
	// Config and Suite identify the run.
	Config string `json:"config"`
	Suite  string `json:"suite"`
	// Results holds one entry per benchmark, in suite order.
	Results []TraceResult `json:"results"`
	// RanShards and CachedShards report how much of the run was
	// simulated versus served from the engine's result store.
	RanShards    int `json:"ranShards"`
	CachedShards int `json:"cachedShards"`
	// AvgMPKI is the arithmetic mean MPKI over the suite, the paper's
	// headline aggregate.
	AvgMPKI float64 `json:"avgMPKI"`
	// Text is the suite summary line, byte-identical to the one the
	// equivalent imlisim invocation prints.
	Text string `json:"text"`
}

// TraceResult is one benchmark's simulation outcome within a
// SuiteResult.
type TraceResult struct {
	// Trace and Predictor label the run.
	Trace     string `json:"trace"`
	Predictor string `json:"predictor"`
	// Instructions, Records, Conditionals, and Mispredicted are the
	// raw simulation counters (sim.Result).
	Instructions uint64 `json:"instructions"`
	Records      uint64 `json:"records"`
	Conditionals uint64 `json:"conditionals"`
	Mispredicted uint64 `json:"mispredicted"`
	// MPKI is mispredictions per kilo-instruction.
	MPKI float64 `json:"mpki"`
	// Text is the per-trace result line, byte-identical to the one the
	// equivalent imlisim invocation prints.
	Text string `json:"text"`
}

// Report is the rendered output of an experiment job, mirroring
// experiments.Report.
type Report struct {
	// ID is the experiment identifier (e1, fig8, table1, ...).
	ID string `json:"id"`
	// Title describes the paper artifact reproduced.
	Title string `json:"title"`
	// Text is the rendered report (tables/series).
	Text string `json:"text"`
	// Values holds key scalar metrics keyed by stable names.
	Values map[string]float64 `json:"values,omitempty"`
}

// Stats is the /v1/stats payload: cumulative engine work and job
// counts since the server started.
type Stats struct {
	// Jobs counts jobs by lifecycle state.
	Jobs map[Status]int `json:"jobs"`
	// Simulated and CacheHits count engine work items simulated versus
	// served from the result store; RecordsSimulated totals the branch
	// records fed to predictors; Resumed counts work items that
	// started from a predictor-state snapshot.
	Simulated        uint64 `json:"simulated"`
	CacheHits        uint64 `json:"cacheHits"`
	RecordsSimulated uint64 `json:"recordsSimulated"`
	Resumed          uint64 `json:"resumed"`
}

// Catalog is the /v1/catalog payload: what the server can simulate.
type Catalog struct {
	// Predictors lists the predictor configuration registry names.
	Predictors []string `json:"predictors"`
	// Suites maps each suite name to its benchmark names, in order.
	Suites map[string][]string `json:"suites"`
	// Experiments lists the runnable experiment IDs with titles.
	Experiments []CatalogExperiment `json:"experiments"`
	// DefaultBudget is the branch budget applied when a Spec leaves
	// Budget at 0.
	DefaultBudget int `json:"defaultBudget"`
}

// CatalogExperiment is one experiment entry of the catalog.
type CatalogExperiment struct {
	// ID is what Spec.Experiment accepts; Title describes the paper
	// artifact it reproduces.
	ID    string `json:"id"`
	Title string `json:"title"`
}
