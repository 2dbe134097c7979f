package twigd

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"twig/internal/runner"
)

// Worker is one fleet member: it registers with the coordinator,
// claims jobs under a lease, executes them through the ordinary
// runner (with the coordinator's blob store attached as the cache's
// remote tier, so results upload as a side effect of the cache's own
// Put path), heartbeats while working, and reports completion. A
// worker that dies simply stops heartbeating — the coordinator
// reassigns its lease, and whatever partial results it uploaded are
// valid content-addressed entries the next attempt reuses.
type Worker struct {
	// Client names the coordinator.
	Client *Client
	// Name identifies the worker in leases and on /debug/fleet.
	Name string
	// Jobs bounds the worker's runner pool per claimed job (<= 0 means
	// GOMAXPROCS via the runner's default).
	Jobs int
	// CacheDir roots the worker's local disk cache ("" = memory-only;
	// the remote tier still serves and receives everything).
	CacheDir string
	// Poll is the base interval between retries of a failed claim
	// (0 = 200ms), backing off exponentially with jitter. An idle
	// worker does not poll: the coordinator holds its claim open.
	Poll time.Duration
	// Log receives progress lines (nil = silent).
	Log io.Writer

	instructions atomic.Int64 // cumulative simulated instructions
	done         atomic.Int64 // completed leases

	// run served the last job and home is its JobSpec.Home rendered by
	// CanonicalOptions (see runnerFor); only Run's goroutine uses them.
	run  *runner.Runner
	home string
}

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, "twigworker %s: %s\n", w.Name, fmt.Sprintf(format, args...))
	}
}

// Instructions returns the worker's cumulative simulated-instruction
// count.
func (w *Worker) Instructions() int64 { return w.instructions.Load() }

// Completed returns how many leases the worker has settled.
func (w *Worker) Completed() int64 { return w.done.Load() }

// Run registers and serves jobs until the context is cancelled. A
// transiently unreachable coordinator is polled, not fatal: the
// worker keeps trying until cancelled, so a coordinator restart does
// not strand the fleet.
func (w *Worker) Run(ctx context.Context) error {
	if w.Name == "" {
		return fmt.Errorf("twigd: worker needs a name")
	}
	reg, err := w.Client.Register(w.Name, w.Jobs)
	if err != nil {
		return fmt.Errorf("twigd: registering: %w", err)
	}
	ttl := time.Duration(reg.LeaseTTLMs) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	cache, err := runner.OpenCache(w.CacheDir, 0)
	if err != nil {
		return err
	}
	cache.SetRemote(w.Client.Blobs(), w.Client.Retry, w.Client.Retries)
	w.logf("registered (lease TTL %s)", ttl)

	poll := w.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	retry := runner.Backoff{Base: poll, Max: 2 * time.Second, Factor: 2, Jitter: 0.5}
	failures := 0
	for ctx.Err() == nil {
		resp, err := w.Client.Claim(ctx, w.Name)
		if err != nil {
			w.logf("claim failed: %v", err)
			failures++
			if retry.Sleep(ctx, failures) != nil {
				return nil
			}
			continue
		}
		failures = 0
		if resp.Job != nil && ctx.Err() == nil {
			w.serve(ctx, resp.Job, cache, ttl)
		}
	}
	return nil
}

// serve executes one claimed job under its lease: heartbeats flow at
// TTL/3 while the job runs, and losing the lease (or the worker's
// context) cancels the execution.
func (w *Worker) serve(ctx context.Context, spec *JobSpec, cache *runner.Cache, ttl time.Duration) {
	w.logf("claimed %s", spec.ID)
	run := w.runnerFor(spec, cache)
	before := run.Stats()

	jobCtx, cancelJob := context.WithCancel(ctx)
	defer cancelJob()
	heartbeatDone := make(chan struct{})
	go func() {
		defer close(heartbeatDone)
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-t.C:
				total := w.instructions.Load() + run.Stats().SimInstructions - before.SimInstructions
				ok, err := w.Client.Heartbeat(w.Name, spec.ID, total)
				if err == nil && !ok {
					w.logf("lease on %s lost; abandoning", spec.ID)
					cancelJob()
					return
				}
			}
		}
	}()

	err := w.runSpec(jobCtx, spec, run)
	cancelJob()
	<-heartbeatDone

	after := run.Stats()
	w.instructions.Add(after.SimInstructions - before.SimInstructions)
	req := CompleteRequest{
		Worker:       w.Name,
		Job:          spec.ID,
		OK:           err == nil,
		Instructions: w.instructions.Load(),
		SimsRun:      after.SimRuns - before.SimRuns,
	}
	if err != nil {
		w.run = nil // the runner memoizes failures, cancellations included
		req.Error = err.Error()
		w.logf("job %s failed: %v", spec.ID, err)
	} else {
		w.done.Add(1)
		w.logf("job %s done (%d sims run, %d cached)", spec.ID, req.SimsRun, after.SimHits-before.SimHits)
	}
	if _, cerr := w.Client.Complete(req); cerr != nil {
		w.logf("completing %s: %v", spec.ID, cerr)
	}
}

// runnerFor returns the last job's runner while jobs share a home, else
// a fresh one. The IDs runner.TableMembers and runner.TrainingJob
// derive are unique within one home, so those jobs share one memo and
// an app is built and analyzed once for all of them; the shared cache
// is the memory across homes.
func (w *Worker) runnerFor(spec *JobSpec, cache *runner.Cache) *runner.Runner {
	home := runner.CanonicalOptions(spec.Home)
	if w.run == nil || home != w.home {
		w.run = runner.New(runner.Options{Workers: w.Jobs, Cache: cache})
		w.home = home
	}
	return w.run
}

// runSpec makes the Runner.Schemes call the spec stands for, the call
// the client would make, so the entries the remote tier receives equal
// locally computed ones.
func (w *Worker) runSpec(ctx context.Context, spec *JobSpec, run *runner.Runner) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	_, err := run.Schemes(ctx, spec.App, spec.Input, spec.Schemes, spec.Opts, spec.Train, spec.Home)
	return err
}
