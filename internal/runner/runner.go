// Package runner turns "run a simulation" into a schedulable job: a
// Job names a unit of deterministic work (building a binary, collecting
// a training profile, simulating one scheme×workload point) with an
// optional SHA-256 content hash, and a Runner executes a DAG of jobs on
// a bounded worker pool with context cancellation, per-attempt
// timeouts, panic isolation and bounded retry.
//
// Jobs with a content hash are backed by a two-tier result cache (an
// in-memory LRU over an on-disk store, see Cache): a hash hit returns
// the decoded payload without running the job — or resolving its
// dependencies, so a fully warm cache re-executes nothing. Because
// every job is a pure function of its spec (the simulator is
// deterministic and side-effect-free per run), results are
// byte-identical regardless of worker count, completion order, or
// whether they were computed or replayed from the cache.
//
// It has three clients: the experiment harness (internal/experiments),
// the twig facade's RunMatrix, and twigd fleet workers. All three run
// a cached scheme the same way — a job listing its TrainingJob in Deps,
// with its identity from TableMembers, resolved through Runner.Schemes
// — so their memo entries and cache envelopes interoperate. See
// DESIGN.md for the job model.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"twig/internal/telemetry"
)

// Kind classifies a job for the runner's telemetry counters, so cache
// effectiveness can be asserted per stage ("a warm rerun executes zero
// simulations and zero profiles").
type Kind uint8

const (
	// KindOther is any uncached or auxiliary job (builds, analyses).
	KindOther Kind = iota
	// KindSim is an evaluation simulation producing a pipeline.Result.
	KindSim
	// KindProfile is a training run producing a profile.Profile.
	KindProfile
	// KindDerived is a job whose payload is a derived statistic that
	// internally runs a simulation or execution walk.
	KindDerived
	// KindSampled is an interval-sampled evaluation producing a
	// sampling.Estimate. It counts toward the simulation telemetry
	// bucket: a sampled run stands in for an exact one.
	KindSampled
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSim:
		return "sim"
	case KindProfile:
		return "profile"
	case KindDerived:
		return "derived"
	case KindSampled:
		return "sampled"
	default:
		return "other"
	}
}

// Job is one schedulable unit of work.
type Job struct {
	// ID uniquely names the job within a Runner; two submissions with
	// the same ID share one execution and one memoized payload (the
	// first submission's Job definition wins).
	ID string
	// Kind classifies the job for telemetry.
	Kind Kind
	// Hash is the hex SHA-256 content hash of the job's spec (see
	// HashSim and friends); "" marks the job uncacheable.
	Hash string
	// Codec serializes the payload for the persistent cache tier; it
	// must be set when Hash is non-empty and a Cache is configured.
	Codec Codec
	// Deps are resolved — concurrently, through the same runner —
	// before Run executes, and their payloads passed to Run in order.
	// Dependencies of a job whose Hash hits the cache are never
	// resolved: a warm cache prunes the whole upstream DAG.
	Deps []*Job
	// Run computes the payload. It must be a pure function of the
	// job's spec and deps; it should honor ctx where it can (the
	// runner additionally enforces its timeout from outside, since
	// simulations are not interruptible mid-run).
	Run func(ctx context.Context, deps []any) (any, error)
}

// Options configure a Runner.
type Options struct {
	// Workers bounds concurrently executing jobs; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Timeout bounds each run attempt; 0 disables. A timed-out
	// attempt's goroutine is abandoned (simulations are finite but not
	// interruptible); its eventual result is discarded.
	Timeout time.Duration
	// Retries is the number of re-run attempts after a failed or
	// panicked attempt (cancellation is never retried).
	Retries int
	// Backoff spaces retry attempts — exponential with jitter, shared
	// with the remote cache tier's transfer retries. The zero value
	// retries immediately (the historical behavior).
	Backoff Backoff
	// Cache persistently memoizes hashed job payloads; nil disables.
	Cache *Cache
	// Fleet, with Cache's remote tier, runs the table-scheme runs that
	// Schemes finds in no cache tier on other machines (see Fleet); nil
	// runs everything here. A fleet worker's own runner has none.
	Fleet Fleet
	// Ledger records the span-structured run ledger: every resolved job
	// becomes a root span with cache-probe, queue-wait and execution
	// attempt children, and the job span travels into Run's context
	// (telemetry.SpanFromContext) so job bodies can nest their own
	// phases under it. nil disables with zero per-job overhead.
	Ledger *telemetry.Ledger
	// ProfileDir, when non-empty, captures per-job pprof profiles into
	// the directory: a CPU profile per executing job (best-effort — CPU
	// profiling is process-global, so concurrent jobs race for it and
	// only the winner is profiled) and a heap profile after each job.
	ProfileDir string
}

// Runner executes jobs. It is safe for concurrent use; submitting the
// same job ID from many goroutines coalesces into one execution.
type Runner struct {
	opts  Options
	sem   chan struct{}
	stats counters
	slots *slotTracker

	mu    sync.Mutex
	nodes map[string]*node
}

type node struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a Runner with the given options.
func New(opts Options) *Runner {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		opts:  opts,
		sem:   make(chan struct{}, opts.Workers),
		slots: newSlotTracker(opts.Workers),
		nodes: make(map[string]*node),
	}
}

// Ledger returns the configured run ledger, or nil.
func (r *Runner) Ledger() *telemetry.Ledger { return r.opts.Ledger }

// Workers returns the worker-pool bound.
func (r *Runner) Workers() int { return r.opts.Workers }

// Cache returns the configured cache, or nil.
func (r *Runner) Cache() *Cache { return r.opts.Cache }

// Result resolves the job — from the in-process memo, the cache, or by
// executing it (after its dependencies) on the worker pool — and
// returns its payload. Concurrent calls for the same ID share one
// resolution; later calls return the memoized payload (which callers
// must therefore treat as read-only).
func (r *Runner) Result(ctx context.Context, j *Job) (any, error) {
	r.mu.Lock()
	n, ok := r.nodes[j.ID]
	if !ok {
		n = &node{done: make(chan struct{})}
		r.nodes[j.ID] = n
	}
	r.mu.Unlock()
	if ok {
		select {
		case <-n.done:
			return n.val, n.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	n.val, n.err = r.resolve(ctx, j)
	close(n.done)
	return n.val, n.err
}

// resolve runs the full lifecycle of one job: cache probe, dependency
// resolution, bounded execution, cache store.
//
// Each resolution records one "job:<ID>" root span. Resolution happens
// exactly once per job ID regardless of how many goroutines await the
// result, and the span's identity derives from the job ID alone, so
// the ledger's span set is independent of worker count (the j1-vs-j8
// determinism test rests on this).
func (r *Runner) resolve(ctx context.Context, j *Job) (any, error) {
	r.stats.Scheduled.Add(1)
	sp := r.opts.Ledger.Begin("job:"+j.ID, "job")
	sp.AttrStr("kind", j.Kind.String())
	defer sp.End()
	if j.Hash != "" && r.opts.Cache != nil {
		probe := sp.Child("cache.probe", "cache")
		v, ok := r.opts.Cache.GetTraced(j.Hash, j.Codec, probe)
		probe.End()
		if ok {
			sp.AttrBool("cached", true)
			r.stats.hit(j.Kind)
			return v, nil
		}
	}
	deps, err := r.resolveDeps(ctx, j, sp)
	if err != nil {
		r.stats.Failed.Add(1)
		sp.AttrBool("failed", true)
		return nil, err
	}
	v, err := r.execute(ctx, j, deps, sp)
	if err != nil {
		r.stats.Failed.Add(1)
		sp.AttrBool("failed", true)
		return nil, fmt.Errorf("runner: job %s: %w", j.ID, err)
	}
	r.stats.Done.Add(1)
	if j.Hash != "" && r.opts.Cache != nil {
		r.opts.Cache.Put(j.Hash, j.Codec, v)
	}
	return v, nil
}

// resolveDeps resolves all dependencies concurrently and returns their
// payloads in declaration order. The wait is a telemetry.DepsWaitSpan
// child of sp, opened whenever j has Deps, whether or not they were
// already resolved.
func (r *Runner) resolveDeps(ctx context.Context, j *Job, sp *telemetry.Span) ([]any, error) {
	if len(j.Deps) == 0 {
		return nil, nil
	}
	wait := sp.Child(telemetry.DepsWaitSpan, "sched")
	defer wait.End()
	vals := make([]any, len(j.Deps))
	errs := make([]error, len(j.Deps))
	var wg sync.WaitGroup
	for i, d := range j.Deps {
		wg.Add(1)
		go func(i int, d *Job) {
			defer wg.Done()
			vals[i], errs[i] = r.Result(ctx, d)
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: job %s: dependency %s: %w", j.ID, j.Deps[i].ID, err)
		}
	}
	return vals, nil
}

// execute acquires a worker slot and runs the job with retry, panic
// isolation and the per-attempt timeout. Queue wait and each attempt
// record child spans of sp (the job or group span; nil when tracing is
// off), and the slot's busy time feeds the per-worker utilization
// gauges.
func (r *Runner) execute(ctx context.Context, j *Job, deps []any, sp *telemetry.Span) (any, error) {
	// Check cancellation before the select: when the pool has free slots
	// AND the context is already done, select would pick a branch at
	// random, and an already-cancelled submission must never start work.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	wait := sp.Child("queue.wait", "sched")
	r.stats.Queued.Add(1)
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		r.stats.Queued.Add(-1)
		wait.End()
		return nil, ctx.Err()
	}
	r.stats.Queued.Add(-1)
	wait.End()
	defer func() { <-r.sem }()
	slot := r.slots.acquire()
	defer r.slots.release(slot)
	r.stats.Running.Add(1)
	defer r.stats.Running.Add(-1)

	var err error
	for attempt := 0; ; attempt++ {
		// No worker-slot attribute: slot assignment is scheduling
		// noise, and the ledger must be identical across -j values.
		asp := sp.Child("attempt", "exec")
		asp.AttrInt("n", int64(attempt))
		var v any
		v, err = r.runOnce(ctx, j, deps, sp)
		asp.AttrBool("ok", err == nil)
		asp.End()
		if err == nil {
			return v, nil
		}
		if ctx.Err() != nil || attempt >= r.opts.Retries {
			return nil, err
		}
		r.stats.Retries.Add(1)
		if r.opts.Backoff.Sleep(ctx, attempt+1) != nil {
			return nil, err
		}
	}
}

// runOnce performs one attempt: panics become errors (a crashing job
// fails that job, not the process) and the attempt is bounded by the
// configured timeout. The job's span rides into Run's context so job
// bodies can hang their own phase spans under it; when ProfileDir is
// set the attempt is bracketed by pprof capture. A timed-out attempt's
// abandoned goroutine never ends its inner spans, so they simply don't
// appear in the ledger.
func (r *Runner) runOnce(ctx context.Context, j *Job, deps []any, sp *telemetry.Span) (v any, err error) {
	ctx = telemetry.ContextWithSpan(ctx, sp)
	type outcome struct {
		v   any
		err error
	}
	run := func() (o outcome) {
		defer func() {
			if p := recover(); p != nil {
				r.stats.Panics.Add(1)
				o = outcome{nil, fmt.Errorf("panic: %v", p)}
			}
		}()
		if r.opts.ProfileDir != "" {
			stop := startJobProfiles(r.opts.ProfileDir, j.ID)
			defer stop()
		}
		o.v, o.err = j.Run(ctx, deps)
		return o
	}
	if r.opts.Timeout <= 0 {
		o := run()
		if o.err == nil {
			r.stats.ran(j.Kind)
		}
		return o.v, o.err
	}
	ch := make(chan outcome, 1)
	go func() { ch <- run() }()
	timer := time.NewTimer(r.opts.Timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		if o.err == nil {
			r.stats.ran(j.Kind)
		}
		return o.v, o.err
	case <-timer.C:
		r.stats.Timeouts.Add(1)
		return nil, fmt.Errorf("timed out after %s", r.opts.Timeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
