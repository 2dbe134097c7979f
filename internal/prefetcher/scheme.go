// Package prefetcher defines the BTB organization + prefetching scheme
// abstraction the simulator's frontend drives, and implements the four
// schemes the paper evaluates:
//
//   - Baseline: the conventional 8K-entry BTB (optionally with Twig's
//     architectural prefetch buffer, fed by brprefetch/brcoalesce);
//   - Ideal: every lookup hits (the paper's ideal-BTB limit study);
//   - Shotgun (Kumar et al., ASPLOS'18): BTB partitioned into U-BTB and
//     C-BTB; executions of unconditional branches prefetch the recorded
//     spatial I-cache footprint of their target region and predecode
//     its conditional branches into the C-BTB;
//   - Confluence (Kaynak et al., MICRO'15): block-grain BTB kept in
//     sync with the I-cache, fed by a SHIFT-style temporal stream
//     prefetcher that replays previously recorded I-cache block
//     sequences and predecodes replayed blocks;
//
// plus two later profile-free organizations (see SCHEMES.md):
//
//   - Hierarchy (Micro BTB, Asheim et al.): the L1 BTB backed by a
//     large last-level BTB with region-compressed tags and delta-
//     compressed targets, exchanging demotion/promotion traffic;
//   - Shadow (Exposing Shadow Branches): fetched I-cache lines are
//     predecoded and their unexecuted direct branches staged in a
//     Shadow Branch Buffer that covers later demand misses.
//
// Schemes receive every BTB lookup and branch resolution plus the fetch
// line stream, and can call back into the frontend to prefetch I-cache
// lines. They never see simulator internals, so new schemes can be
// added without touching the pipeline.
package prefetcher

import (
	"twig/internal/btb"
	"twig/internal/isa"
	"twig/internal/program"
)

// Frontend is the scheme's view of the machine, implemented by the
// pipeline simulator.
type Frontend interface {
	// PrefetchLine brings an I-cache line toward L1i (FDIP-style
	// prefetch issue) at the given cycle.
	PrefetchLine(line uint64, cycle float64)
	// Program exposes the binary for predecoding (finding the branches
	// inside a fetched/prefetched line).
	Program() *program.Program
}

// Resolution describes a resolved branch, delivered to the scheme after
// the lookup for BTB fill and prefetch training.
type Resolution struct {
	// PC and Target are the branch address and its taken target (for
	// conditional branches, the would-be-taken target).
	PC, Target uint64
	// Kind is the branch type.
	Kind isa.Kind
	// Taken reports whether control transferred.
	Taken bool
	// Cycle is the frontend cycle of resolution.
	Cycle float64
}

// InsertOutcome classifies what a scheme did with a software prefetch,
// so observers of the pipeline's event sink can distinguish real
// issues from redundant drops without re-probing scheme internals.
type InsertOutcome uint8

// InsertPrefetch outcomes.
const (
	// InsertStaged means the entry was staged in the prefetch buffer.
	InsertStaged InsertOutcome = iota
	// InsertRedundant means the entry was dropped because it was
	// already demand- or buffer-resident.
	InsertRedundant
	// InsertIgnored means the scheme has no software prefetch
	// interface.
	InsertIgnored
)

// LookupResult describes a BTB lookup outcome.
type LookupResult struct {
	// Hit reports whether the demand lookup hit the scheme's BTB
	// structures (including a ready prefetch-buffer entry).
	Hit bool
	// LateBy is the residual wait when the lookup consumed a
	// prefetch-buffer entry that had not finished arriving (a "late"
	// prefetch). Zero otherwise.
	LateBy float64
	// FromPrefetch reports whether the hit was served by a prefetched
	// entry (used for coverage accounting).
	FromPrefetch bool
}

// Scheme is a BTB organization plus its prefetching mechanism.
type Scheme interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Attach gives the scheme access to the frontend. Called once
	// before simulation.
	Attach(fe Frontend)
	// Lookup performs the demand BTB lookup for the branch at pc.
	// taken is the predicted direction: a miss for a not-taken
	// conditional is benign (sequential fetch is correct), causes no
	// resteer, and — matching real hardware, where it produces no
	// BAClears event — is not counted as a real miss.
	Lookup(pc uint64, kind isa.Kind, cycle float64, taken bool) LookupResult
	// Resolve delivers the resolved branch for fill and training. The
	// pipeline reuses one Resolution for every branch (keeping the
	// per-instruction loop allocation-free), so implementations must
	// copy what they need and not retain r past the call.
	Resolve(r *Resolution)
	// OnFetchLine observes the fetch engine moving to a new I-cache
	// line (used by footprint recorders).
	OnFetchLine(line uint64, cycle float64)
	// OnLineMiss observes a demand L1i miss (used by temporal stream
	// prefetchers such as Confluence's SHIFT history).
	OnLineMiss(line uint64, cycle float64)
	// InsertPrefetch stages a software-prefetched BTB entry (Twig's
	// brprefetch/brcoalesce execution) and reports what became of it.
	// Schemes without an architectural prefetch buffer return
	// InsertIgnored.
	InsertPrefetch(pc, target uint64, kind isa.Kind, ready float64) InsertOutcome
	// ProbeDemand reports whether pc is already demand-resident (used
	// by the Twig runtime to classify redundant prefetches).
	ProbeDemand(pc uint64) bool
	// Stats returns accumulated counters.
	Stats() *btb.Stats
	// PrefetchStats returns issued/used/late prefetch counters, zero
	// for schemes that do not prefetch.
	PrefetchStats() PrefetchStats
}

// PrefetchStats summarizes a scheme's prefetch effectiveness.
// Accuracy (Fig. 19) is Used/Issued; coverage is computed by the
// experiment harness against a baseline run's miss count (Fig. 17).
type PrefetchStats struct {
	// Issued counts prefetched BTB entries.
	Issued int64
	// Used counts prefetched entries consumed by a demand lookup before
	// eviction.
	Used int64
	// Late counts used entries that had not finished arriving.
	Late int64
	// Redundant counts prefetches dropped because the entry was already
	// demand-resident.
	Redundant int64
}

// Accuracy returns Used/Issued in [0,1], or 0 when nothing was issued.
func (p PrefetchStats) Accuracy() float64 {
	if p.Issued == 0 {
		return 0
	}
	return float64(p.Used) / float64(p.Issued)
}
