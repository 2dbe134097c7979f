// Package twigd is the distributed simulation service: a coordinator
// that serves the runner's job queue over HTTP/JSON to a fleet of
// workers sharing one remote, content-addressed result cache.
//
// The design principle is that distribution is an accelerator, never a
// correctness dependency. A client (the twig facade's RunMatrix, or
// cmd/experiments) submits job specs to the coordinator, waits for the
// fleet to drain them, and then runs its normal local execution path
// with the coordinator's blob store attached as the result cache's
// remote tier — every cell the fleet computed replays as a remote
// cache hit, and anything the fleet did not finish (a lost worker, an
// unreachable coordinator, a corrupted blob) executes locally exactly
// as it would have without a fleet. Results are therefore byte-
// identical with and without a coordinator, for any worker count, and
// for any failure pattern.
//
// Robustness is first-class: jobs are claimed under expiring leases
// (a worker that dies mid-job loses its lease and the job is
// reassigned), every blob transfer retries with exponential backoff
// and jitter, and blobs are re-validated on arrival (see
// runner.RemoteCache) so corruption in transit or at rest degrades to
// local re-execution, never to wrong numbers. See DESIGN.md §12 for
// the protocol.
package twigd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"twig/internal/core"
	"twig/internal/runner"
	"twig/internal/sampling"
	"twig/internal/workload"
)

// SimConfig is the serializable evaluation operating point — the
// subset of the facade's Config that can cross a process boundary.
// It is the single source of the Config → core.Options mapping: the
// twig facade delegates to Options() for its own runs, so a worker
// decoding a SimConfig from the wire reconstructs exactly the
// core.Options the submitting process used, and their content hashes
// (runner.HashSim et al.) line up. Zero values mean "paper default".
type SimConfig struct {
	// Instructions is the simulation window in original instructions.
	Instructions int64 `json:"instructions,omitempty"`
	// Warmup simulates (but does not measure) this many instructions
	// first. The experiment harness warms half a window; the facade
	// does not warm.
	Warmup int64 `json:"warmup,omitempty"`
	// BTBEntries / BTBWays size the baseline BTB.
	BTBEntries int `json:"btb_entries,omitempty"`
	BTBWays    int `json:"btb_ways,omitempty"`
	// FTQSize is the decoupled frontend's run-ahead depth.
	FTQSize int `json:"ftq_size,omitempty"`
	// PrefetchBuffer is Twig's architectural buffer capacity.
	PrefetchBuffer int `json:"prefetch_buffer,omitempty"`
	// PrefetchDistance is the analysis' minimum site-to-miss distance.
	PrefetchDistance float64 `json:"prefetch_distance,omitempty"`
	// CoalesceMaskBits is the brcoalesce bitmask width.
	CoalesceMaskBits int `json:"coalesce_mask_bits,omitempty"`
	// DisableCoalescing evaluates software BTB prefetching alone.
	DisableCoalescing bool `json:"disable_coalescing,omitempty"`
	// SampleRate makes the profiler record every Nth BTB miss.
	SampleRate int `json:"sample_rate,omitempty"`
	// ProfileInstructions is the training-run length (0 = twice the
	// evaluation window, the engine default).
	ProfileInstructions int64 `json:"profile_instructions,omitempty"`
	// Epoch, when > 0, snapshots every metric each Epoch committed
	// instructions (it shapes Result.Series, so it is part of the
	// content hash and must ride along).
	Epoch int64 `json:"epoch,omitempty"`
	// Sample configures interval-sampled estimation.
	Sample sampling.Spec `json:"sample,omitzero"`
}

// Options maps the serializable operating point onto the engine's
// options, exactly as the facade's Config does — the facade calls this
// method, so the two cannot diverge.
func (c SimConfig) Options() core.Options {
	opts := core.DefaultOptions()
	if c.Instructions > 0 {
		opts.Pipeline.MaxInstructions = c.Instructions
	}
	if c.Warmup > 0 {
		opts.Pipeline.Warmup = c.Warmup
	}
	if c.BTBEntries > 0 {
		opts.BTB.Entries = c.BTBEntries
	}
	if c.BTBWays > 0 {
		opts.BTB.Ways = c.BTBWays
	}
	if c.FTQSize > 0 {
		opts.Pipeline.FTQSize = c.FTQSize
	}
	if c.PrefetchBuffer > 0 {
		opts.PrefetchBuffer = c.PrefetchBuffer
	}
	if c.PrefetchDistance > 0 {
		opts.Opt.PrefetchDistance = c.PrefetchDistance
	}
	if c.CoalesceMaskBits > 0 {
		opts.Opt.CoalesceMaskBits = c.CoalesceMaskBits
	}
	opts.Opt.DisableCoalescing = c.DisableCoalescing
	if c.SampleRate > 0 {
		opts.SampleRate = c.SampleRate
	}
	if c.ProfileInstructions > 0 {
		opts.ProfileInstructions = c.ProfileInstructions
	}
	if c.Epoch > 0 {
		opts.Telemetry.EpochLength = c.Epoch
	}
	opts.Sample = c.Sample
	return opts
}

// fingerprint is a short stable digest of the operating point, used to
// namespace job IDs so specs that differ only in configuration never
// collide in the coordinator's queue.
func (c SimConfig) fingerprint() string {
	sum := sha256.Sum256([]byte(runner.CanonicalOptions(c.Options())))
	return hex.EncodeToString(sum[:6])
}

// JobSpec is one unit of fleet work: the named schemes of one
// (app, input) point, simulated in one shared-stream pass over the
// artifacts trained on input 0 — exactly how the local RunMatrix and
// the experiments group them. It is self-contained: a worker needs
// nothing but the spec (and the shared blob store) to execute it.
type JobSpec struct {
	// ID names the job in the coordinator's queue. Leave empty on
	// submission: the coordinator assigns the canonical Key(), which
	// makes resubmission of the same spec idempotent.
	ID string `json:"id,omitempty"`
	// App is the application; Input the evaluation input.
	App   workload.App `json:"app"`
	Input int          `json:"input,omitempty"`
	// Schemes names the schemes to simulate (core.SchemeNames).
	Schemes []string `json:"schemes,omitempty"`
	// Config is the operating point.
	Config SimConfig `json:"config"`
}

// Validate checks the spec is well-formed and executable.
func (s *JobSpec) Validate() error {
	if !validApp(s.App) {
		return fmt.Errorf("twigd: unknown app %q", s.App)
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("twigd: job without schemes")
	}
	for _, sc := range s.Schemes {
		if _, err := runner.SchemeMemoKey(sc, s.App, s.Input); err != nil {
			return err
		}
	}
	return nil
}

// Key returns the spec's canonical queue ID: workload point, sorted
// scheme set and a configuration fingerprint, so identical specs —
// from any client — dedupe to one queue entry and differing
// configurations never merge.
func (s *JobSpec) Key() string {
	names := append([]string(nil), s.Schemes...)
	sort.Strings(names)
	return fmt.Sprintf("%s/%d/%s/%s", s.App, s.Input, strings.Join(names, "+"), s.Config.fingerprint())
}

func validApp(app workload.App) bool {
	for _, a := range workload.Apps() {
		if a == app {
			return true
		}
	}
	return false
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

// ClaimResponse carries the claimed job, or a nil Job when nothing is
// claimable right now (the worker backs off and polls again).
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
	Worker       string `json:"worker"`
	Job          string `json:"job"`
	OK           bool   `json:"ok"`
	Error        string `json:"error,omitempty"`
	Instructions int64  `json:"instructions,omitempty"`
	SimsRun      int64  `json:"sims_run,omitempty"`
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

// StatusResponse summarizes the coordinator for pollers (Client.Drain).
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
