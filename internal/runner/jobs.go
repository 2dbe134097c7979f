package runner

import (
	"context"
	"fmt"

	"twig/internal/core"
	"twig/internal/pipeline"
	"twig/internal/profile"
	"twig/internal/program"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// BuiltApp pairs a workload's parameters with its built (unmodified)
// binary — the payload of a BuildJob.
type BuiltApp struct {
	Params workload.Params
	Prog   *program.Program
}

// BuildJob returns the (options-independent) job that builds an
// application's binary. Building is cheap and deterministic, so the job
// carries no content hash; it is memoized in-process by ID.
func BuildJob(app workload.App) *Job {
	return &Job{
		ID:   "build/" + string(app),
		Kind: KindOther,
		Run: func(context.Context, []any) (any, error) {
			params, err := workload.ParamsFor(app)
			if err != nil {
				return nil, err
			}
			p, err := workload.Build(params)
			if err != nil {
				return nil, err
			}
			return BuiltApp{params, p}, nil
		},
	}
}

// ArtifactsJob assembles the profile→analyze DAG for one application
// under the given options: build (cheap, uncached) → profile (the
// training simulation, disk-cached) → optimize (analysis + relink,
// cheap). Because a cache hit on the profile prunes its dependencies,
// a warm cache reconstructs artifacts without a single training
// simulation. tag namespaces sweep variants that rebuild under
// non-default options; it must uniquely name the variant within a
// Runner.
//
// Every job that runs on artifacts lists this job in its Deps, so a
// cache hit on that job prunes the artifacts too, and the artifacts
// are built before the job takes a worker slot.
func ArtifactsJob(app workload.App, train int, opts core.Options, tag string) *Job {
	build := BuildJob(app)
	prof := &Job{
		ID:    fmt.Sprintf("profile/%s%s/%d", tag, app, train),
		Kind:  KindProfile,
		Hash:  HashProfile(app, train, opts),
		Codec: ProfileCodec{},
		Deps:  []*Job{build},
		Run: func(_ context.Context, deps []any) (any, error) {
			b := deps[0].(BuiltApp)
			return core.CollectProfile(b.Prog, b.Params, train, opts)
		},
	}
	return &Job{
		ID:   fmt.Sprintf("art/%s%s/%d", tag, app, train),
		Kind: KindOther,
		Deps: []*Job{build, prof},
		Run: func(_ context.Context, deps []any) (any, error) {
			b := deps[0].(BuiltApp)
			return core.OptimizeFromProfile(b.Prog, b.Params, deps[1].(*profile.Profile), train, opts)
		},
	}
}

// SimMember returns the identity of one evaluation simulation under
// memo key `key`: ID "run/"+key, KindSim, ResultCodec, and the HashSim
// content hash unless the options carry observable telemetry
// (Cacheable). A solo job and a group member built from it address the
// same memo entry and cache envelope.
func SimMember(key string, opts core.Options) Member {
	h := ""
	if Cacheable(opts) {
		h = HashSim(key, opts)
	}
	return Member{ID: "run/" + key, Kind: KindSim, Hash: h, Codec: ResultCodec{}}
}

// SchemeMember is SimMember for one named scheme's run of (app, input),
// keyed by SchemeMemoKey.
func SchemeMember(scheme string, app workload.App, input int, opts core.Options) (Member, error) {
	key, err := SchemeMemoKey(scheme, app, input)
	if err != nil {
		return Member{}, err
	}
	return SimMember(key, opts), nil
}

// Schemes resolves the named schemes' runs of (app, input) under opts,
// keyed by scheme name, as one group over the artifacts job art
// (GroupResult). Each member has its SchemeMember identity, so members
// already resolved or cached peel out and a solo run of any scheme
// serves, and is served by, the group. The remaining schemes run as one
// core.RunSchemes pass over a shared broadcast stream on one worker
// slot, with the group's ledger span attached to opts so the pipeline's
// phase spans nest under it; executed runs credit their instructions to
// AddSimInstructions.
func (r *Runner) Schemes(ctx context.Context, art *Job, app workload.App, input int, names []string, opts core.Options) (map[string]*pipeline.Result, error) {
	out := make(map[string]*pipeline.Result, len(names))
	if len(names) == 0 {
		return out, nil
	}
	members := make([]Member, len(names))
	byID := make(map[string]string, len(names))
	for i, name := range names {
		m, err := SchemeMember(name, app, input, opts)
		if err != nil {
			return nil, err
		}
		members[i] = m
		byID[m.ID] = name
	}
	vals, err := r.GroupResult(ctx, members, []*Job{art},
		func(jctx context.Context, deps []any, need []Member) (map[string]any, error) {
			run := make([]string, len(need))
			for i, m := range need {
				run[i] = byID[m.ID]
			}
			o := opts
			if sp := telemetry.SpanFromContext(jctx); sp != nil {
				o.Telemetry.Span = sp
			}
			results, err := deps[0].(*core.Artifacts).RunSchemes(run, input, o)
			if err != nil {
				return nil, err
			}
			vals := make(map[string]any, len(need))
			var executed int64
			for _, m := range need {
				res := results[byID[m.ID]]
				executed += res.Instructions
				vals[m.ID] = res
			}
			r.AddSimInstructions(executed)
			return vals, nil
		})
	if err != nil {
		return nil, err
	}
	for id, v := range vals {
		out[byID[id]] = v.(*pipeline.Result)
	}
	return out, nil
}
