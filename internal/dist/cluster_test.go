package dist

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/client"
	"repro/internal/sim"
)

// Cluster is a self-contained coordinator plus n worker loops talking
// to it over a real loopback HTTP listener — the same wire path a
// multi-machine deployment uses, shrunk into one process. It backs the
// bit-identity, chaos and server-timeout tests of this package.
type Cluster struct {
	// Coordinator is the cluster's queue; pass it as the engine's
	// RemoteRunner.
	Coordinator *Coordinator
	// URL is the coordinator's base URL on 127.0.0.1.
	URL string

	srv    *http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// StartLocal starts a coordinator on a loopback listener and n workers
// leasing from it. newEngine builds each worker's engine (workers need their
// own engines: a worker sharing the coordinating engine's store would
// short-circuit the wire path the cluster exists to exercise; sharing
// is still fine, just untested here). Close the cluster when done.
func StartLocal(n int, cfg CoordinatorConfig, newEngine func(i int) *sim.Engine) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: a local worker cluster needs at least one worker, got %d", n)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("dist: listen: %w", err)
	}
	coord := NewCoordinator(cfg)
	mux := http.NewServeMux()
	mux.Handle("/v1/work/", coord.Handler())
	cl := &Cluster{
		Coordinator: coord,
		URL:         "http://" + ln.Addr().String(),
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: client.ConnTimeout,
			IdleTimeout:       client.ConnTimeout,
		},
	}
	go func() { _ = cl.srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	cl.cancel = cancel
	for i := 0; i < n; i++ {
		w := &Worker{
			Client: client.New(cl.URL),
			Engine: newEngine(i),
			Name:   fmt.Sprintf("local-%d", i),
		}
		cl.wg.Add(1)
		go func() {
			defer cl.wg.Done()
			_ = w.Run(ctx)
		}()
	}
	return cl, nil
}

// Close stops the workers, the HTTP listener, and the coordinator
// (failing any still-pending items). Idempotent.
func (cl *Cluster) Close() {
	if cl.cancel != nil {
		cl.cancel()
	}
	cl.wg.Wait()
	_ = cl.srv.Close()
	cl.Coordinator.Close()
}
