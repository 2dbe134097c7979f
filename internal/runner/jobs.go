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
// simulation. tag namespaces the job IDs of a variant that retrains
// under other options (TrainingJob derives it from a digest); a client's
// own artifacts take "".
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
// content hash unless the options carry an observer (Cacheable).
// Table-scheme runs take theirs from TableMembers instead; SimMember
// serves runs outside the table.
func SimMember(key string, opts core.Options) Member {
	h := ""
	if Cacheable(opts) {
		h = HashSim(key, opts)
	}
	return Member{ID: "run/" + key, Kind: KindSim, Hash: h, Codec: ResultCodec{}}
}

// Training names the binary an Optimized scheme runs: the one trained
// on input Input under Opts, of which only Opts.Training() matters.
type Training struct {
	Input int
	Opts  core.Options
}

// digestLen is how many hex digits of a digest a variant's job ID
// carries.
const digestLen = 12

// TableMembers is the one identity of table-scheme runs: the named
// schemes on (app, input) under opts, where an Optimized scheme runs
// the binary that tr names. A content hash covers what the result
// depends on. A scheme that is not Optimized, or one whose training is
// what opts itself would build (input 0 and the same
// core.Options.Training projection), hashes as HashSim(SchemeMemoKey,
// opts): a sweep point hashes as RunMatrix and twigd workers would for
// its options. Any other run's hash also covers tr's input and
// projection. The ID is "run/<memo key>" for the run at home, the
// client's own operating point with its own training; every other
// run's ID appends "@" and a digest of its hash, so IDs stay unique in
// one runner without a hand-written key. The options render once per
// call, not once per scheme.
func TableMembers(names []string, app workload.App, input int, opts core.Options, tr Training, home core.Options) ([]Member, error) {
	canon := CanonicalOptions(opts)
	atHome := canon == CanonicalOptions(home)
	cacheable := Cacheable(opts)
	var trained []string // the hash parts naming tr, when opts would train otherwise
	if tr.Input != 0 || tr.Opts.Training() != opts.Training() {
		trained = []string{fmt.Sprintf("train=%d", tr.Input), CanonicalOptions(tr.Opts.Training())}
	}
	members := make([]Member, len(names))
	for i, name := range names {
		key, err := SchemeMemoKey(name, app, input)
		if err != nil {
			return nil, err
		}
		parts := []string{"v1", SimVersion, "sim", key, canon}
		spec, _ := core.LookupScheme(name)
		foreign := spec.Optimized && trained != nil
		if foreign {
			parts = append(parts, trained...)
		}
		h := hash(parts...)
		m := Member{ID: "run/" + key, Kind: KindSim, Codec: ResultCodec{}}
		if !atHome || foreign {
			m.ID += "@" + h[:digestLen]
		}
		if cacheable {
			m.Hash = h
		}
		members[i] = m
	}
	return members, nil
}

// SchemeMember is the identity of one named scheme's run of (app,
// input) at opts, on the binary that training under opts builds: the
// TableMembers identity of a client at home at opts. RunMatrix and
// twigd workers address their runs by it.
func SchemeMember(scheme string, app workload.App, input int, opts core.Options) (Member, error) {
	ms, err := TableMembers([]string{scheme}, app, input, opts, Training{Opts: opts}, opts)
	if err != nil {
		return Member{}, err
	}
	return ms[0], nil
}

// TrainingJob returns the artifacts job that builds the binary tr
// names, for a client whose own artifacts train under home. A training
// with home's projection is home's ArtifactsJob. One that differs from
// it only in the analysis configuration re-analyzes home's profile
// (Artifacts.Reoptimize), an uncached job that retrains nothing. Any
// other retrains under tr.Opts: the whole profile → analyze → inject
// pipeline, with its profile disk-cached. A variant's job IDs carry a
// digest of its training projection, so they stay unique without a
// caller-written tag.
func TrainingJob(app workload.App, tr Training, home core.Options) *Job {
	want, own := tr.Opts.Training(), home.Training()
	if want == own {
		return ArtifactsJob(app, tr.Input, home, "")
	}
	tag := hash("training", CanonicalOptions(want))[:digestLen] + "/"
	own.Opt = want.Opt
	if want == own {
		base := ArtifactsJob(app, tr.Input, home, "")
		return &Job{
			ID:   fmt.Sprintf("art/%s%s/%d", tag, app, tr.Input),
			Kind: KindOther,
			Deps: []*Job{base},
			Run: func(_ context.Context, deps []any) (any, error) {
				return deps[0].(*core.Artifacts).Reoptimize(tr.Opts)
			},
		}
	}
	return ArtifactsJob(app, tr.Input, tr.Opts, tag)
}

// Schemes resolves the named schemes' runs of (app, input) under opts,
// keyed by scheme name, for a client at home: each run has its
// TableMembers identity, and an Optimized scheme runs the binary of
// TrainingJob(app, tr, home). One name resolves as a job of its own.
// Several resolve as one group (GroupResult): members already resolved
// or cached peel out, so a solo run of any scheme serves, and is served
// by, the group, and the rest run as one core.RunSchemes pass over a
// shared broadcast stream on one worker slot. Either way the job's
// ledger span rides in opts, so the pipeline's phase spans nest under
// it, and executed runs credit their instructions to AddSimInstructions.
func (r *Runner) Schemes(ctx context.Context, app workload.App, input int, names []string, opts core.Options, tr Training, home core.Options) (map[string]*pipeline.Result, error) {
	out := make(map[string]*pipeline.Result, len(names))
	if len(names) == 0 {
		return out, nil
	}
	members, err := TableMembers(names, app, input, opts, tr, home)
	if err != nil {
		return nil, err
	}
	byID := make(map[string]string, len(names))
	for i, m := range members {
		byID[m.ID] = names[i]
	}
	art := TrainingJob(app, tr, home)
	if len(names) == 1 {
		m := members[0]
		v, err := r.Result(ctx, &Job{ID: m.ID, Kind: m.Kind, Hash: m.Hash, Codec: m.Codec, Deps: []*Job{art},
			Run: func(jctx context.Context, deps []any) (any, error) {
				res, err := deps[0].(*core.Artifacts).RunScheme(names[0], input, withSpan(jctx, opts))
				if err == nil {
					r.AddSimInstructions(res.Instructions)
				}
				return res, err
			}})
		if err != nil {
			return nil, err
		}
		out[names[0]] = v.(*pipeline.Result)
		return out, nil
	}
	vals, err := r.GroupResult(ctx, members, []*Job{art},
		func(jctx context.Context, deps []any, need []Member) (map[string]any, error) {
			run := make([]string, len(need))
			for i, m := range need {
				run[i] = byID[m.ID]
			}
			results, err := deps[0].(*core.Artifacts).RunSchemes(run, input, withSpan(jctx, opts))
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

// withSpan returns opts with the job's ledger span (from jctx) as the
// run's parent span, so the pipeline's phase spans nest under the job.
func withSpan(jctx context.Context, opts core.Options) core.Options {
	if sp := telemetry.SpanFromContext(jctx); sp != nil {
		opts.Telemetry.Span = sp
	}
	return opts
}
