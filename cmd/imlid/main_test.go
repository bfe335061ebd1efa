package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRunOnce drives the full service loop — serve, submit, dedup,
// SSE, result, bit-identity against the imlisim engine path — through
// the -once self-test mode CI also runs as a smoke test.
func TestRunOnce(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-once"}, &out, io.Discard); err != nil {
		t.Fatalf("imlid -once: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "self-test ok") {
		t.Errorf("self-test output missing ok line:\n%s", out.String())
	}
}

// TestRunOnceSharded repeats the self-test with a sharded, snapshotted
// engine: the reference run uses the same geometry, so bit-identity
// must hold for every engine configuration a deployment might use.
func TestRunOnceSharded(t *testing.T) {
	var out strings.Builder
	dir := t.TempDir()
	args := []string{"-once", "-shards=3", "-exact-shards", "-cache-dir=" + dir}
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("imlid %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	if !strings.Contains(out.String(), "self-test ok") {
		t.Errorf("self-test output missing ok line:\n%s", out.String())
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-job-workers=0", "-once"}, "-job-workers"},
		{[]string{"-job-workers=-3", "-once"}, "-job-workers"},
		{[]string{"-queue-depth=0", "-once"}, "-queue-depth"},
		{[]string{"-budget=0", "-once"}, "-budget"},
		{[]string{"-budget=-1", "-once"}, "-budget"},
		{[]string{"-keep-jobs=-1", "-once"}, "-keep-jobs"},
		{[]string{"-drain-timeout=0s", "-once"}, "-drain-timeout"},
		{[]string{"-drain-timeout=-5s", "-once"}, "-drain-timeout"},
		{[]string{"-rate-limit=-1", "-once"}, "-rate-limit"},
		{[]string{"-rate-limit=NaN", "-once"}, "-rate-limit"},
		{[]string{"-rate-limit=+Inf", "-once"}, "-rate-limit"},
		{[]string{"-rate-burst=-1", "-once"}, "-rate-burst"},
		{[]string{"-shards=0", "-once"}, "-shards"},
		{[]string{"-shards=-3", "-once"}, "-shards"},
		{[]string{"-parallel=-3", "-once"}, "-parallel"},
	}
	for _, tc := range cases {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil {
			t.Errorf("run(%v) accepted an invalid flag", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error %q does not name the offending flag %s", tc.args, err, tc.want)
		}
	}
}

// startDaemon launches the built imlid binary and returns the running
// command plus its base URL (parsed from the "listening on" line).
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr=127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			rest := line[i+len("listening on "):]
			addr = strings.Fields(rest)[0]
			break
		}
	}
	if addr == "" {
		_ = cmd.Process.Kill()
		t.Fatalf("daemon never reported its listen address (scanner err: %v)", sc.Err())
	}
	// Keep draining stdout so the daemon never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	return cmd, "http://" + addr
}

// TestCrashRestartReplay is the end-to-end crash-safety contract
// (DESIGN.md §12): submit a job, kill -9 the daemon mid-run, restart
// it on the same cache dir, and the job — replayed from the journal
// under its original ID — completes with a result bit-identical to
// the same spec run directly on an engine.
func TestCrashRestartReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kill -9s a real daemon")
	}
	bin := filepath.Join(t.TempDir(), "imlid")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cacheDir := t.TempDir()
	args := []string{"-cache-dir=" + cacheDir, "-exact-shards", "-job-workers=1", "-parallel=2"}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	const config, suite, budget = "gshare", "cbp4", 50000
	spec := client.Spec{Type: client.JobSuite, Config: config, Suite: suite, Budget: budget}

	cmd, base := startDaemon(t, bin, args...)
	c := client.New(base)
	job, err := c.Submit(ctx, spec)
	if err != nil {
		_ = cmd.Process.Kill()
		t.Fatalf("submit: %v", err)
	}

	// Wait for the first progress event so the kill lands mid-job
	// (cbp4 has 40 work items; one done means 39 outstanding), then
	// SIGKILL — no drain, no cleanup, exactly a crash.
	sentinel := fmt.Errorf("first progress seen")
	err = c.Watch(ctx, job.ID, func(ev client.Event) error {
		if ev.Type == "progress" {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		_ = cmd.Process.Kill()
		t.Fatalf("watching for first progress: %v", err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Restart on the same cache dir: the journal replays the job under
	// its original ID, so the pre-crash client can keep waiting on it.
	cmd2, base2 := startDaemon(t, bin, args...)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	c2 := client.New(base2)
	view, err := c2.Job(ctx, job.ID)
	if err != nil {
		t.Fatalf("job %s not known after restart: %v", job.ID, err)
	}
	if !view.Replayed {
		t.Fatalf("job %s after restart = %+v, want Replayed=true", job.ID, view)
	}
	final, err := c2.Wait(ctx, job.ID, nil)
	if err != nil {
		t.Fatalf("waiting on replayed job: %v", err)
	}
	if final.Status != client.StatusDone {
		t.Fatalf("replayed job finished %s: %s", final.Status, final.Error)
	}
	res, err := c2.Result(ctx, job.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}

	// The reference: the identical spec on a fresh, storeless engine.
	ref := sim.NewEngine(sim.EngineConfig{}).RunSuite(
		func() predictor.Predictor { return predictor.MustNew(config) },
		config, suite, workload.Suites()[suite], budget)
	if len(res.Suite.Results) != len(ref.Results) {
		t.Fatalf("result count mismatch: replayed %d, direct %d", len(res.Suite.Results), len(ref.Results))
	}
	for i, got := range res.Suite.Results {
		if want := sim.FormatResult(ref.Results[i]); got.Text != want {
			t.Fatalf("trace %s not bit-identical after crash replay:\nreplayed: %s\ndirect:   %s",
				got.Trace, got.Text, want)
		}
	}
}

// TestDistributedSmoke is the end-to-end distributed contract
// (DESIGN.md §14) with real processes: an imlid -coordinator daemon,
// two imliworker fleet members, one of them SIGKILLed mid-run. The
// coordinator re-dispatches the lost worker's leases after -lease-ttl,
// the survivor finishes the suite, and the job result is bit-identical
// to the same spec run directly on a local engine.
func TestDistributedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two real binaries and kill -9s a worker")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "imlid")
	wbin := filepath.Join(dir, "imliworker")
	for target, pkg := range map[string]string{bin: ".", wbin: "../imliworker"} {
		build := exec.Command("go", "build", "-o", target, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	cmd, base := startDaemon(t, bin, "-coordinator", "-shards=2", "-lease-ttl=1s", "-job-workers=1")
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	workers := make([]*exec.Cmd, 2)
	for i := range workers {
		w := exec.Command(wbin, "-coordinator", base, "-slots=2", fmt.Sprintf("-name=w%d", i))
		w.Stdout, w.Stderr = io.Discard, io.Discard
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	defer func() {
		for _, w := range workers {
			_ = w.Process.Kill()
			_ = w.Wait()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	const config, suite, budget = "gshare", "cbp4", 400000
	c := client.New(base)
	job, err := c.Submit(ctx, client.Spec{Type: client.JobSuite, Config: config, Suite: suite, Budget: budget})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// First progress means the fleet is running items; kill -9 one
	// worker so its outstanding leases die with it. cbp4 × 2 shards is
	// 80 items, so the kill lands with most of the suite outstanding.
	sentinel := fmt.Errorf("first progress seen")
	err = c.Watch(ctx, job.ID, func(ev client.Event) error {
		if ev.Type == "progress" {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("watching for first progress: %v", err)
	}
	if err := workers[0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = workers[0].Wait()

	final, err := c.Wait(ctx, job.ID, nil)
	if err != nil {
		t.Fatalf("waiting on job after worker loss: %v", err)
	}
	if final.Status != client.StatusDone {
		t.Fatalf("job finished %s: %s", final.Status, final.Error)
	}
	res, err := c.Result(ctx, job.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}

	// The reference: the identical spec and geometry on a fresh local
	// engine — distributed execution must not move a single bit.
	ref := sim.NewEngine(sim.EngineConfig{Shards: 2}).RunSuite(
		func() predictor.Predictor { return predictor.MustNew(config) },
		config, suite, workload.Suites()[suite], budget)
	if len(res.Suite.Results) != len(ref.Results) {
		t.Fatalf("result count mismatch: distributed %d, direct %d", len(res.Suite.Results), len(ref.Results))
	}
	for i, got := range res.Suite.Results {
		if want := sim.FormatResult(ref.Results[i]); got.Text != want {
			t.Fatalf("trace %s not bit-identical after worker loss:\ndistributed: %s\ndirect:      %s",
				got.Trace, got.Text, want)
		}
	}
}

// TestCoordinatorShutdownAnswersWaitingLease: SIGTERM to an imlid
// -coordinator holding a waiting lease request answers the request
// empty and exits well inside the 5s shutdown deadline, instead of
// waiting the request out.
func TestCoordinatorShutdownAnswersWaitingLease(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real daemon")
	}
	bin := filepath.Join(t.TempDir(), "imlid")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd, base := startDaemon(t, bin, "-coordinator")
	var exitErr error
	exited := make(chan struct{})
	go func() {
		exitErr = cmd.Wait()
		close(exited)
	}()
	defer func() {
		_ = cmd.Process.Kill()
		<-exited
	}()

	c := client.New(base)
	c.Retry = &client.RetryPolicy{MaxAttempts: 1}
	// A first round trip opens the connection the lease request reuses.
	if _, err := c.WorkStats(context.Background()); err != nil {
		t.Fatal(err)
	}
	type answer struct {
		ok  bool
		err error
		at  time.Time
	}
	leased := make(chan answer, 1)
	go func() {
		_, ok, err := c.LeaseWork(context.Background(), "w")
		leased <- answer{ok, err, time.Now()}
	}()
	// The daemon exposes no count of waiting requests; give this one
	// time to reach the lease handler. A late one fails to connect.
	time.Sleep(300 * time.Millisecond)
	sent := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if exitErr != nil {
			t.Fatalf("daemon exit: %v", exitErr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon still running 10s after SIGTERM")
	}
	if d := time.Since(sent); d > 2500*time.Millisecond {
		t.Errorf("daemon exited %s after SIGTERM; shutdown waited on the lease request", d)
	}
	a := <-leased
	if a.err != nil || a.ok {
		t.Fatalf("waiting lease = ok %v, err %v; want an empty answer", a.ok, a.err)
	}
	if a.at.Before(sent) {
		t.Error("the lease request was answered before SIGTERM: it never waited")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunHelp(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard, io.Discard); err != nil {
		t.Errorf("-h should exit clean, got %v", err)
	}
}

// TestHTTPServerTimeouts: imlid's API servers bound the wait for
// request headers, so a client trickling headers cannot hold a
// connection forever, and leave WriteTimeout unset so event streams
// run as long as their jobs.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 || s.WriteTimeout != 0 {
		t.Errorf("ReadHeaderTimeout=%s IdleTimeout=%s WriteTimeout=%s; want the first two set, WriteTimeout zero",
			s.ReadHeaderTimeout, s.IdleTimeout, s.WriteTimeout)
	}
}
