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
	// Poll is the idle claim-poll base interval (0 = 200ms); it backs
	// off exponentially with jitter while the queue is empty so an
	// idle fleet does not hammer the coordinator in lockstep.
	Poll time.Duration
	// Log receives progress lines (nil = silent).
	Log io.Writer

	instructions atomic.Int64 // cumulative simulated instructions
	done         atomic.Int64 // completed leases
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
	idle := runner.Backoff{Base: poll, Max: 2 * time.Second, Factor: 2, Jitter: 0.5}
	idleAttempt := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		resp, err := w.Client.Claim(w.Name)
		if err != nil {
			w.logf("claim failed: %v", err)
			idleAttempt++
			if idle.Sleep(ctx, idleAttempt) != nil {
				return nil
			}
			continue
		}
		if resp.Job == nil {
			idleAttempt++
			if idle.Sleep(ctx, idleAttempt) != nil {
				return nil
			}
			continue
		}
		idleAttempt = 0
		w.serve(ctx, resp.Job, cache, ttl)
	}
}

// serve executes one claimed job under its lease: heartbeats flow at
// TTL/3 while the job runs, and losing the lease (or the worker's
// context) cancels the execution.
func (w *Worker) serve(ctx context.Context, spec *JobSpec, cache *runner.Cache, ttl time.Duration) {
	w.logf("claimed %s", spec.ID)
	// A fresh runner per job: job IDs are memo keys that do not embed
	// the operating point, so in-process memoization must not outlive
	// one spec. The cache (hash-keyed, shared, remote-attached) is the
	// cross-job memory.
	run := runner.New(runner.Options{Workers: w.Jobs, Cache: cache})

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
				total := w.instructions.Load() + run.Stats().SimInstructions
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

	stats := run.Stats()
	w.instructions.Add(stats.SimInstructions)
	req := CompleteRequest{
		Worker:       w.Name,
		Job:          spec.ID,
		OK:           err == nil,
		Instructions: w.instructions.Load(),
		SimsRun:      stats.SimRuns,
	}
	if err != nil {
		req.Error = err.Error()
		w.logf("job %s failed: %v", spec.ID, err)
	} else {
		w.done.Add(1)
		w.logf("job %s done (%d sims run, %d cached)", spec.ID, stats.SimRuns, stats.SimHits)
	}
	if _, cerr := w.Client.Complete(req); cerr != nil {
		w.logf("completing %s: %v", spec.ID, cerr)
	}
}

// runSpec executes one spec through the runner: one Runner.Schemes
// call at the spec's options, trained on input 0 under them, the same
// call the local execution paths (experiments Context, facade
// RunMatrix) make, so the cache entries the remote tier receives are
// indistinguishable from locally computed ones.
func (w *Worker) runSpec(ctx context.Context, spec *JobSpec, run *runner.Runner) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	opts := spec.Config.Options()
	_, err := run.Schemes(ctx, spec.App, spec.Input, spec.Schemes, opts, runner.Training{Opts: opts}, opts)
	return err
}
