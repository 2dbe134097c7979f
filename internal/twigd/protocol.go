// Package twigd is the distributed simulation service: a coordinator
// that serves a job queue over HTTP/JSON to a fleet of workers sharing
// one remote, content-addressed result cache.
//
// Distribution is an accelerator, never a correctness dependency. A
// client attaches the coordinator once (Attach): its blob store becomes
// the cache's remote tier and its Client the runner's runner.Fleet.
// Each Runner.Schemes call then offers the fleet the runs no cache tier
// holds, as one job carrying the call's own arguments, and replays the
// fleet's results as remote hits; whatever the fleet did not finish (a
// lost worker, an unreachable or restarted coordinator, a corrupted
// blob) runs locally. Results are byte-identical with and without a
// coordinator, for any worker count and any failure pattern. Jobs are
// claimed under expiring leases, transfers retry with backoff, and
// blobs are re-validated on arrival (runner.RemoteCache). See
// DESIGN.md §12 for the protocol.
package twigd

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strings"

	"twig/internal/core"
	"twig/internal/pipeline"
	"twig/internal/runner"
	"twig/internal/workload"
)

// JobSpec is one unit of fleet work: one Runner.Schemes call, given by
// exactly that call's arguments, which a worker makes in turn, so every
// result and profile hash matches the client's own. Home rides along
// because runner.TrainingJob builds from it: a training that differs
// from home's only in the analysis re-analyzes home's profile.
type JobSpec struct {
	// ID names the job in the coordinator's queue. Leave empty on
	// submission: the coordinator assigns the canonical Key(), which
	// makes resubmission of the same work idempotent.
	ID      string          `json:"id,omitempty"`
	App     workload.App    `json:"app"`
	Input   int             `json:"input,omitempty"`
	Schemes []string        `json:"schemes,omitempty"`
	Opts    core.Options    `json:"opts"`
	Train   runner.Training `json:"train"`
	Home    core.Options    `json:"home"`
}

// NewJobSpec returns the spec of one Runner.Schemes call, each option
// set reduced to the value fields runner.CanonicalOptions renders: the
// scheme instance, sink and telemetry outputs are dropped, the epoch
// length is kept.
func NewJobSpec(app workload.App, input int, names []string, opts core.Options, tr runner.Training, home core.Options) JobSpec {
	values := func(o core.Options) core.Options {
		o.Pipeline.Scheme, o.Pipeline.Sink = nil, nil
		o.Pipeline.Telemetry = pipeline.Telemetry{EpochLength: o.Pipeline.Telemetry.EpochLength}
		o.Telemetry = pipeline.Telemetry{EpochLength: o.Telemetry.EpochLength}
		return o
	}
	return JobSpec{App: app, Input: input, Schemes: slices.Clone(names), Opts: values(opts),
		Train: runner.Training{Input: tr.Input, Opts: values(tr.Opts)}, Home: values(home)}
}

// Validate checks the spec is one a worker can run: a known app, at
// least one known scheme, and option sets whose BTB geometry the
// simulator can build and that carry no observer or ledger span.
func (s *JobSpec) Validate() error {
	if !slices.Contains(workload.Apps(), s.App) {
		return fmt.Errorf("twigd: unknown app %q", s.App)
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("twigd: job without schemes")
	}
	for _, o := range []struct {
		name string
		opts core.Options
	}{{"opts", s.Opts}, {"train", s.Train.Opts}, {"home", s.Home}} {
		if err := o.opts.BTB.Validate(); err != nil {
			return fmt.Errorf("twigd: %s: %w", o.name, err)
		}
		if !runner.Cacheable(o.opts) || o.opts.Telemetry.Span != nil {
			return fmt.Errorf("twigd: %s: carries an observer or a ledger span", o.name)
		}
	}
	_, err := runner.TableMembers(s.Schemes, s.App, s.Input, s.Opts, s.Train, s.Home)
	return err
}

// Key returns the spec's canonical queue ID: the workload point, the
// sorted scheme names and a digest of the members' TableMembers content
// hashes in sorted order. The same work from any client, whatever its
// home or scheme order, dedupes to one queue entry, and work that
// differs in any option never merges. Call it on a valid spec.
func (s *JobSpec) Key() string {
	ms, _ := runner.TableMembers(s.Schemes, s.App, s.Input, s.Opts, s.Train, s.Home)
	names, hashes := slices.Clone(s.Schemes), make([]string, len(ms))
	for i, m := range ms {
		hashes[i] = m.Hash
	}
	sort.Strings(names)
	sort.Strings(hashes)
	sum := sha256.Sum256([]byte(strings.Join(hashes, "+")))
	return fmt.Sprintf("%s/%d/%s/%x", s.App, s.Input, strings.Join(names, "+"), sum[:6])
}

// Wire types for the coordinator's /v1 endpoints. Every request is a
// POST of one JSON object; every response is one JSON object. Errors
// are transported as non-2xx statuses with a plain-text body.

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Worker string `json:"worker"`
	Slots  int    `json:"slots"` // parallel jobs the worker runs
}

// RegisterResponse acknowledges registration and tells the worker the
// lease TTL so it can pace heartbeats.
type RegisterResponse struct {
	OK         bool  `json:"ok"`
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
}

// ClaimRequest asks for one claimable job.
type ClaimRequest struct {
	Worker string `json:"worker"`
}

// ClaimResponse carries the claimed job, or a nil Job when nothing
// became claimable while the coordinator held the claim (the worker
// asks again).
type ClaimResponse struct {
	Job        *JobSpec `json:"job,omitempty"`
	LeaseTTLMs int64    `json:"lease_ttl_ms"`
}

// HeartbeatRequest extends a lease and reports progress.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Job    string `json:"job"`
	// Instructions is the worker's cumulative simulated-instruction
	// count; the fleet endpoint exposes it so dashboards can derive
	// per-worker kIPS from deltas.
	Instructions int64 `json:"instructions,omitempty"`
}

// HeartbeatResponse reports whether the lease still stands; OK false
// means it expired and was reassigned — the worker should abandon the
// job (its uploads are harmless: blobs are content-addressed).
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest reports a finished job.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Job    string `json:"job"`
	OK     bool   `json:"ok"`
	Error  string `json:"error,omitempty"`
	// Instructions is the worker's cumulative simulated-instruction
	// count; SimsRun counts the simulations this job executed.
	Instructions int64 `json:"instructions,omitempty"`
	SimsRun      int64 `json:"sims_run,omitempty"`
}

// CompleteResponse acknowledges completion; OK false means the lease
// had already expired and the completion was recorded by someone else
// (or is still pending re-execution).
type CompleteResponse struct {
	OK bool `json:"ok"`
}

// SubmitRequest enqueues jobs.
type SubmitRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// SubmitResponse returns the queue IDs, parallel to the request's
// jobs. Resubmitted specs return their existing IDs.
type SubmitResponse struct {
	IDs []string `json:"ids"`
}

// QueueCounts is the queue's state histogram.
type QueueCounts struct {
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
}

// WaitRequest blocks until the named jobs settle (Client.Offer).
type WaitRequest struct {
	IDs []string `json:"ids"`
}

// WaitResponse ends a wait. Settled: every named job is done or
// failed. Unknown: named jobs the queue does not hold, which a
// restarted coordinator lost. Stalled: a named job is pending, no job
// is leased and no worker is alive. None set: the wait window ended.
type WaitResponse struct {
	Settled bool     `json:"settled,omitempty"`
	Unknown []string `json:"unknown,omitempty"`
	Stalled bool     `json:"stalled,omitempty"`
}

// StatusResponse summarizes the coordinator's queue and fleet.
type StatusResponse struct {
	Queue QueueCounts `json:"queue"`
	// AliveWorkers counts workers seen within the liveness window.
	AliveWorkers int `json:"alive_workers"`
}

// JobStatus is one queue entry's externally visible state.
type JobStatus struct {
	ID       string `json:"id"`
	App      string `json:"app"`
	Input    int    `json:"input"`
	State    string `json:"state"`
	Worker   string `json:"worker,omitempty"`
	Requeues int    `json:"requeues,omitempty"`
	Error    string `json:"error,omitempty"`
}

// JobsResponse lists every queue entry in submission order.
type JobsResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// WorkerStatus is one worker's row on the fleet endpoint.
type WorkerStatus struct {
	Name  string `json:"name"`
	Slots int    `json:"slots"`
	// Alive reports a heartbeat within the liveness window; a dead
	// worker's leases are (or are about to be) reassigned.
	Alive bool `json:"alive"`
	// Lease is the job the worker holds right now ("" when idle).
	Lease string `json:"lease,omitempty"`
	// Done/Failed count completed leases; Instructions is the worker's
	// cumulative simulated-instruction count (kIPS falls out of
	// sampling this twice).
	Done         int64 `json:"done"`
	Failed       int64 `json:"failed"`
	Instructions int64 `json:"instructions"`
	// IdleMs is the time since the worker was last heard from.
	IdleMs int64 `json:"idle_ms"`
}

// BlobStats describes the shared blob store.
type BlobStats struct {
	Blobs int64 `json:"blobs"`
	Bytes int64 `json:"bytes"`
	Gets  int64 `json:"gets"`
	Puts  int64 `json:"puts"`
	// Misses counts Gets for absent hashes — the fleet-level cache
	// miss rate is Misses/Gets.
	Misses int64 `json:"misses"`
}

// FleetStatus is the /debug/fleet document: everything cmd/twigtop
// renders. Two samples a second apart yield queue drain rate and
// per-worker kIPS.
type FleetStatus struct {
	Queue      QueueCounts    `json:"queue"`
	Workers    []WorkerStatus `json:"workers"`
	Blobs      BlobStats      `json:"blobs"`
	LeaseTTLMs int64          `json:"lease_ttl_ms"`
}
