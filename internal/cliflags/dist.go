package cliflags

import (
	"flag"
	"fmt"
	"net/url"
	"strings"
	"time"
)

// Dist holds the parsed values of the distributed-mode flags
// (DESIGN.md §14): imlid can run as a coordinator (its engine
// dispatches work items to a worker-pull queue under /v1/work/) or as
// a worker fleet member (lease items from a coordinator's URL), and
// the suite tools can spin up an in-process local cluster with
// -workers.
type Dist struct {
	// Coordinator is -coordinator: expose the engine's work items as a
	// worker-pull queue instead of simulating them in-process.
	Coordinator bool
	// WorkerURL is -worker <url>: run as a worker leasing items from
	// the coordinator at the base URL.
	WorkerURL string
	// LeaseTTL is -lease-ttl: how long a leased item may stay
	// outstanding before the coordinator re-dispatches it.
	LeaseTTL time.Duration
}

// RegisterDist adds the distributed-mode flags (imlid only; the suite
// tools use RegisterWorkers instead).
func RegisterDist(fs *flag.FlagSet) *Dist {
	d := &Dist{}
	fs.BoolVar(&d.Coordinator, "coordinator", false,
		"serve the engine's work items as a worker-pull queue under /v1/work/ and merge remote results (DESIGN.md §14)")
	fs.StringVar(&d.WorkerURL, "worker", "",
		"run as a worker: lease work items from the coordinator at this base URL (e.g. http://host:8327)")
	fs.DurationVar(&d.LeaseTTL, "lease-ttl", 30*time.Second,
		"how long a leased work item may stay outstanding before the coordinator re-dispatches it")
	return d
}

// Validate cross-checks the distributed-mode flags: coordinator and
// worker are exclusive roles, and the lease TTL must be positive.
func (d *Dist) Validate() error {
	if d.Coordinator && d.WorkerURL != "" {
		return fmt.Errorf("-coordinator and -worker are exclusive: a process either owns the queue or pulls from one")
	}
	return PositiveDuration("lease-ttl", d.LeaseTTL)
}

// ParseWorkerURL validates a coordinator base URL from a -worker or
// -coordinator flag value and normalizes it (trailing slash trimmed,
// like client.New).
func ParseWorkerURL(raw string) (string, error) {
	if raw == "" {
		return "", fmt.Errorf("worker mode needs the coordinator's base URL (e.g. -worker http://host:8327)")
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("coordinator URL %q: %v", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("coordinator URL %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("coordinator URL %q: missing host", raw)
	}
	return strings.TrimRight(raw, "/"), nil
}

// RegisterWorkers adds the -workers flag the suite tools take: a
// local in-process worker cluster behind the engine, the one-machine
// form of the coordinator/worker split. Opt-in like RegisterSeeds.
func RegisterWorkers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0,
		"distribute work items to this many in-process workers over the loopback worker-pull queue (0 = run in-process; DESIGN.md §14)")
}

// ValidateWorkers checks a parsed -workers count.
func ValidateWorkers(workers int) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", workers)
	}
	return nil
}
