package runner

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"

	"twig/internal/telemetry"
)

// Member identifies one cacheable unit of a grouped job — typically
// one scheme's simulation within a shared-stream group. ID, Kind, Hash
// and Codec mean exactly what they mean on Job; a member must use the
// same ID and hash the equivalent individual Job would, so the
// in-process memo and the persistent cache interoperate in both
// directions (a grouped run warms individual lookups and vice versa).
type Member struct {
	ID    string
	Kind  Kind
	Hash  string
	Codec Codec
}

// GroupResult resolves a set of members that share one execution —
// e.g. all schemes of an (app, input) point simulated over a single
// broadcast stream — and returns their payloads keyed by member ID.
//
// Lifecycle, mirroring Result member-by-member:
//
//   - Members already known to the runner (resolved or resolving via
//     Result or another group) are awaited, not recomputed.
//   - Each remaining member's hash is probed against the cache; hits
//     peel out of the group and count as cached (stats.hit), exactly
//     as a hash hit on an individual job.
//   - If any members survive peeling, deps are resolved (only then —
//     a fully peeled group, like a fully cached DAG, executes nothing
//     upstream) and run(ctx, deps, need) executes once on a single
//     worker slot with the runner's usual retry/panic/timeout
//     envelope. It must return a payload for every member of need;
//     each counts as run (stats.ran) and is stored in the cache.
//
// The group occupies one worker slot regardless of how many internal
// goroutines the shared run fans out to; size Workers accordingly when
// grouping. run must be a pure function of (deps, need), like Job.Run.
func (r *Runner) GroupResult(ctx context.Context, members []Member, deps []*Job,
	run func(ctx context.Context, deps []any, need []Member) (map[string]any, error)) (map[string]any, error) {

	out := make(map[string]any, len(members))

	// The group's span is named after the requested member set — never
	// the survivors of claiming or peeling — so its identity is stable
	// across cache states and claim races. The claimed/peeled counts,
	// by contrast, reflect this run's races and cache: ledger
	// determinism holds for runs with equivalent starting state (the
	// fresh-runner case the j1-vs-j8 test pins).
	sp := r.opts.Ledger.Begin(groupSpanName(members), "group")
	sp.AttrInt("members", int64(len(members)))
	defer sp.End()

	// Claim: members not yet known to this runner become ours to
	// resolve; the rest are awaited like any concurrent Result call.
	var mine, await []Member
	claimed := make(map[string]*node)
	r.mu.Lock()
	for _, m := range members {
		if _, ok := r.nodes[m.ID]; ok {
			await = append(await, m)
			continue
		}
		n := &node{done: make(chan struct{})}
		r.nodes[m.ID] = n
		claimed[m.ID] = n
		mine = append(mine, m)
	}
	r.mu.Unlock()
	sp.AttrInt("claimed", int64(len(mine)))

	// Peel: cache hits leave the group before any work is scheduled.
	need := make([]Member, 0, len(mine))
	for _, m := range mine {
		r.stats.Scheduled.Add(1)
		if m.Hash != "" && r.opts.Cache != nil {
			probe := sp.Child("probe:"+m.ID, "cache")
			v, ok := r.opts.Cache.GetTraced(m.Hash, m.Codec, probe)
			probe.End()
			if ok {
				r.stats.hit(m.Kind)
				n := claimed[m.ID]
				n.val = v
				close(n.done)
				out[m.ID] = v
				continue
			}
		}
		need = append(need, m)
	}
	sp.AttrInt("peeled", int64(len(mine)-len(need)))

	var firstErr error
	if len(need) > 0 {
		gj := &Job{
			ID:   groupID(need),
			Kind: KindOther,
			Deps: deps,
			Run: func(ctx context.Context, depVals []any) (any, error) {
				return run(ctx, depVals, need)
			},
		}
		vals, err := r.executeGroup(ctx, gj, sp)
		for _, m := range need {
			n := claimed[m.ID]
			if err != nil {
				r.stats.Failed.Add(1)
				n.err = err
			} else if v, ok := vals[m.ID]; !ok {
				r.stats.Failed.Add(1)
				n.err = fmt.Errorf("runner: group %s: run produced no payload for member %s", gj.ID, m.ID)
			} else {
				r.stats.ran(m.Kind)
				r.stats.Done.Add(1)
				if m.Hash != "" && r.opts.Cache != nil {
					r.opts.Cache.Put(m.Hash, m.Codec, v)
				}
				n.val = v
				out[m.ID] = v
			}
			if n.err != nil && firstErr == nil {
				firstErr = n.err
			}
			close(n.done)
		}
	}

	for _, m := range await {
		r.mu.Lock()
		n := r.nodes[m.ID]
		r.mu.Unlock()
		select {
		case <-n.done:
			if n.err != nil {
				if firstErr == nil {
					firstErr = n.err
				}
			} else {
				out[m.ID] = n.val
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// executeGroup resolves the synthetic group job's deps and runs it on
// the worker pool (queue-wait and attempt spans land under the group
// span), returning the per-member payload map.
func (r *Runner) executeGroup(ctx context.Context, gj *Job, sp *telemetry.Span) (map[string]any, error) {
	depVals, err := r.resolveDeps(ctx, gj, sp)
	if err != nil {
		return nil, err
	}
	v, err := r.execute(ctx, gj, depVals, sp)
	if err != nil {
		return nil, fmt.Errorf("runner: group %s: %w", gj.ID, err)
	}
	vals, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("runner: group %s: run returned %T, want map[string]any", gj.ID, v)
	}
	return vals, nil
}

// groupID names the synthetic group job after its surviving members;
// it exists only for error messages (group jobs are never memoized —
// their members are).
func groupID(need []Member) string {
	ids := make([]string, len(need))
	for i, m := range need {
		ids[i] = m.ID
	}
	return "group(" + strings.Join(ids, ",") + ")"
}

// groupSpanName names a group's ledger span after a digest of the
// full requested member set, so the span's identity does not shift
// with cache state or claim outcomes.
func groupSpanName(members []Member) string {
	h := sha256.New()
	for _, m := range members {
		h.Write([]byte(m.ID))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("group:%x", h.Sum(nil)[:4])
}
