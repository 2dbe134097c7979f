package runner

import (
	"context"

	"twig/internal/core"
	"twig/internal/workload"
)

// Fleet runs table-scheme runs on other machines (twigd.Client
// implements it). Its results come back as hits on the cache's remote
// tier, so it is attached together with that tier.
type Fleet interface {
	// Offer hands the fleet the named runs of one Schemes call, given by
	// exactly that call's arguments, and returns once the fleet has
	// settled them. An error means the fleet did not run them; either
	// way the runner runs locally whatever the cache still misses.
	Offer(ctx context.Context, app workload.App, input int, names []string, opts core.Options, tr Training, home core.Options) error
}

// offer hands the fleet the runs of a Schemes call that have a content
// hash, that no cache tier holds and that this runner is not already
// resolving, and waits for it. It runs before the call's artifacts
// resolve and holds no worker slot, so the client never trains a
// profile for a run the fleet serves.
func (r *Runner) offer(ctx context.Context, app workload.App, input int, names []string, members []Member, opts core.Options, tr Training, home core.Options) {
	if r.opts.Fleet == nil || r.opts.Cache == nil {
		return
	}
	var missed []string
	for i, m := range members {
		r.mu.Lock()
		_, known := r.nodes[m.ID]
		r.mu.Unlock()
		if m.Hash == "" || known {
			continue
		}
		if _, ok := r.opts.Cache.Get(m.Hash, m.Codec); !ok {
			missed = append(missed, names[i])
		}
	}
	if len(missed) > 0 {
		_ = r.opts.Fleet.Offer(ctx, app, input, missed, opts, tr, home) // what it declines runs here
	}
}
