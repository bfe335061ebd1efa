// Command imliworker is a fleet member for a distributed imlid
// coordinator (DESIGN.md §14): it leases (config × bench × shard) work
// items from the coordinator's worker-pull queue at /v1/work/, runs
// them on a local simulation engine, and posts each item's counters
// back. A lease request waits on the coordinator until work is
// pending, and each completion carries the slot's next lease when one
// is; after a transport error or an empty answer a slot backs off for
// dist.Worker's fixed 50 ms. Simulation is deterministic, so the
// coordinator's merged results are bit-identical to a single-process
// run no matter how many workers share the queue.
//
// The worker owns only its local resources: -slots bounds how many
// items it leases at once, engine flags (-parallel, -cache-dir,
// -stream-mem, -exact-shards) shape its local engine, and item
// geometry — shards, budget, warm-up — arrives with each lease, so
// -shards is an error. Killing a worker at any instant is safe; its
// leases expire on the coordinator and the items are re-dispatched.
//
// Usage:
//
//	imliworker -coordinator http://host:8327
//	imliworker -coordinator http://host:8327 -slots=8 -cache-dir=.imli-cache
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"

	"repro/client"
	"repro/internal/cliflags"
	"repro/internal/dist"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "imliworker:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("imliworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordinator := fs.String("coordinator", "", "base URL of the imlid -coordinator daemon (required, e.g. http://host:8327)")
	name := fs.String("name", "", "worker name reported on leases (default <hostname>-<pid>)")
	slots := fs.Int("slots", 0, "work items leased concurrently (0 = GOMAXPROCS; simulation inside an item is bounded engine-wide by -parallel)")
	eng := cliflags.Register(fs)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	var shardsSet bool
	fs.Visit(func(f *flag.Flag) { shardsSet = shardsSet || f.Name == "shards" })
	if shardsSet {
		return fmt.Errorf("-shards does not apply to a worker: each leased item carries its own shard geometry")
	}
	engCfg, err := eng.Config()
	if err != nil {
		return err
	}
	url, err := cliflags.ParseWorkerURL(*coordinator)
	if err != nil {
		return err
	}
	if *slots < 0 {
		return fmt.Errorf("-slots must be >= 0, got %d", *slots)
	}
	n := *slots
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	base := *name
	if base == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		base = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	// One engine shared by every slot: items from the same suite share
	// the worker's stream cache and (with -cache-dir) its local store.
	engine := sim.NewEngine(engCfg)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stdout, "imliworker: leasing from %s (slots %d)\n", url, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &dist.Worker{
			Client: client.New(url),
			Engine: engine,
			Name:   fmt.Sprintf("%s-%d", base, i),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	wg.Wait()
	fmt.Fprintln(stdout, "imliworker: stopped")
	return nil
}
