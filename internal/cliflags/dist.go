package cliflags

import (
	"flag"
	"fmt"
	"net/url"
	"strings"
	"time"
)

// Dist holds the parsed values of imlid's distributed-mode flags
// (DESIGN.md §14): with -coordinator its engine dispatches work items
// to a worker-pull queue under /v1/work/, which cmd/imliworker fleet
// members lease from.
type Dist struct {
	// Coordinator is -coordinator: expose the engine's work items as a
	// worker-pull queue instead of simulating them in-process.
	Coordinator bool
	// LeaseTTL is -lease-ttl: how long a leased item may stay
	// outstanding before the coordinator re-dispatches it.
	LeaseTTL time.Duration
}

// RegisterDist adds the distributed-mode flags (imlid only).
func RegisterDist(fs *flag.FlagSet) *Dist {
	d := &Dist{}
	fs.BoolVar(&d.Coordinator, "coordinator", false,
		"serve the engine's work items as a worker-pull queue under /v1/work/ and merge remote results (DESIGN.md §14)")
	fs.DurationVar(&d.LeaseTTL, "lease-ttl", 30*time.Second,
		"how long a leased work item may stay outstanding before the coordinator re-dispatches it")
	return d
}

// Validate checks the distributed-mode flags: the lease TTL must be
// positive.
func (d *Dist) Validate() error {
	return PositiveDuration("lease-ttl", d.LeaseTTL)
}

// ParseWorkerURL validates a coordinator base URL from imliworker's
// -coordinator flag and normalizes it (trailing slash trimmed, like
// client.New).
func ParseWorkerURL(raw string) (string, error) {
	if raw == "" {
		return "", fmt.Errorf("a worker needs the coordinator's base URL (e.g. -coordinator http://host:8327)")
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
