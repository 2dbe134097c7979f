// Package core wires the complete Twig pipeline end to end — the
// paper's deployment flow for one application:
//
//	build binary → profile a training run (LBR at BTB misses) →
//	analyze (injection sites, compression, coalescing) → relink with
//	brprefetch/brcoalesce injected → run the optimized binary.
//
// It is the engine behind the public twig package and the experiment
// harness; everything here is deterministic given the workload
// parameters and input numbers.
package core

import (
	"fmt"
	"sync"

	"twig/internal/btb"
	"twig/internal/exec"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
	"twig/internal/profile"
	"twig/internal/program"
	"twig/internal/sampling"
	"twig/internal/twigopt"
	"twig/internal/workload"
)

// Run phases: profiles are collected at ProfilePhase and every
// evaluation simulates EvalPhase, so a "same input" evaluation sees the
// same request mix as training but a fresh branch-outcome stream — two
// runs of the same server, not a replay of the profiled execution.
const (
	ProfilePhase = 0
	EvalPhase    = 1
)

// Options bundle the knobs of one end-to-end Twig evaluation.
type Options struct {
	// Pipeline is the machine configuration; BackendCPI and
	// CondMispredictRate are overridden from the workload parameters.
	Pipeline pipeline.Config
	// BTB is the baseline BTB geometry.
	BTB btb.Config
	// Opt is the analysis configuration.
	Opt twigopt.Config
	// PrefetchBuffer is the architectural prefetch buffer size for
	// Twig runs (the paper's default is 128; Fig. 25 sweeps it).
	PrefetchBuffer int
	// SampleRate is the profiler's miss sampling rate (1 = every miss).
	SampleRate int
	// Telemetry configures observability for evaluation runs (registry,
	// epoch series, event trace). Profiling runs never carry telemetry:
	// the Training projection zeroes it so training cannot perturb or
	// pollute the measured stream.
	Telemetry pipeline.Telemetry
	// ProfileInstructions is the training-run length. Zero means twice
	// the evaluation window — production profiles cover far more
	// execution than any simulated window, and rarely-missing branches
	// need enough samples to earn a prefetch site.
	ProfileInstructions int64
	// Sample configures interval-sampled evaluation (RunSchemeSampled).
	// The zero value means exact simulation; exact entry points ignore
	// it entirely, so setting it never perturbs RunScheme results.
	Sample sampling.Spec
}

// DefaultOptions returns the paper's operating point.
func DefaultOptions() Options {
	return Options{
		Pipeline:       pipeline.DefaultConfig(),
		BTB:            btb.DefaultConfig(),
		Opt:            twigopt.DefaultConfig(),
		PrefetchBuffer: 128,
		SampleRate:     1,
	}
}

// Training projects o onto the fields training reads: the machine
// configuration, BTB, SampleRate and ProfileInstructions that
// CollectProfile profiles under, and the Opt that twigopt.Analyze
// reads. PrefetchBuffer, Sample, telemetry and the machine's scheme and
// sink are zeroed, because no trained binary depends on them.
// CollectProfile reads its options only through this projection, and a
// run's identity compares and hashes its training by it
// (runner.TableMembers).
func (o Options) Training() Options {
	t := Options{Pipeline: o.Pipeline, BTB: o.BTB, Opt: o.Opt, SampleRate: o.SampleRate, ProfileInstructions: o.ProfileInstructions}
	t.Pipeline.Scheme, t.Pipeline.Sink, t.Pipeline.Telemetry = nil, nil, pipeline.Telemetry{}
	return t
}

// Observed reports whether opts attach a per-run observer: an event
// sink, a metric registry or an event tracer. A cache hit would skip an
// observer's side effects (runner.Cacheable), and a grouped run would
// call it from several goroutines at once (Groupable).
// Telemetry.EpochLength alone is no observer: a nil Registry gives each
// run a private one (see pipeline.Telemetry), and the epoch length
// reaches the cache key instead. Nor is Telemetry.Span: schemeConfig
// gives every scheme its own child span, and the ledger behind them is
// concurrency-safe.
func Observed(opts Options) bool {
	return opts.Pipeline.Sink != nil || opts.Telemetry.Registry != nil || opts.Telemetry.Tracer != nil
}

// Artifacts carries everything produced for one application, cached by
// the experiment harness across figures.
type Artifacts struct {
	Params    workload.Params
	Program   *program.Program // profiled (unmodified) binary
	Optimized *program.Program // binary with injected prefetches
	Profile   *profile.Profile
	Analysis  *twigopt.Analysis
	// TrainInput is the input number the profile was collected on.
	TrainInput int
}

// machineConfig returns opts.Pipeline specialized to the app. A Sink
// set on opts.Pipeline is preserved — callers attach it deliberately
// (profilers, recorders).
func machineConfig(opts Options, params workload.Params) pipeline.Config {
	cfg := opts.Pipeline
	cfg.BackendCPI = params.BackendCPI
	cfg.CondMispredictRate = params.CondMispredictRate
	cfg.Telemetry = opts.Telemetry
	return cfg
}

// BuildAndOptimize builds the app binary, profiles it on trainInput
// with the baseline BTB, runs the Twig analysis, and relinks.
func BuildAndOptimize(app workload.App, trainInput int, opts Options) (*Artifacts, error) {
	params, err := workload.ParamsFor(app)
	if err != nil {
		return nil, err
	}
	p, err := workload.Build(params)
	if err != nil {
		return nil, err
	}
	prof, err := CollectProfile(p, params, trainInput, opts)
	if err != nil {
		return nil, err
	}
	return OptimizeFromProfile(p, params, prof, trainInput, opts)
}

// CollectProfile runs the training simulation for an already-built
// binary and returns its profile — the expensive middle stage of
// BuildAndOptimize, split out so job runners can schedule (and cache)
// it separately from the cheap build and analyze stages. It reads opts
// through the Training projection, so training runs are never observed.
func CollectProfile(p *program.Program, params workload.Params, trainInput int, opts Options) (*profile.Profile, error) {
	opts = opts.Training()
	cfg := machineConfig(opts, params)
	cfg.Scheme = prefetcher.NewBaseline(opts.BTB, 0, false)
	if opts.ProfileInstructions > 0 {
		cfg.MaxInstructions = opts.ProfileInstructions
	} else {
		cfg.MaxInstructions = 2 * cfg.MaxInstructions
	}
	// Profiling observes the whole run: production LBR sampling sees
	// every phase, and even a branch's first-ever miss has timely
	// predecessors worth learning.
	cfg.Warmup = 0
	prof, _, err := profile.Collect(p, params.InputPhase(trainInput, ProfilePhase), cfg, opts.SampleRate)
	return prof, err
}

// OptimizeFromProfile runs the Twig analysis on a collected (or
// cached) profile and relinks the binary — the final stage of
// BuildAndOptimize. The profile must come from the same binary; block
// counts are cross-checked so a stale cached profile fails loudly
// rather than silently mis-optimizing.
func OptimizeFromProfile(p *program.Program, params workload.Params, prof *profile.Profile, trainInput int, opts Options) (*Artifacts, error) {
	if len(prof.BlockExecs) != len(p.Blocks) {
		return nil, fmt.Errorf("core: profile has %d blocks, binary has %d — profile is from a different binary",
			len(prof.BlockExecs), len(p.Blocks))
	}
	an, err := twigopt.Analyze(p, prof, opts.Opt)
	if err != nil {
		return nil, err
	}
	optimized, err := p.Inject(an.Plan)
	if err != nil {
		return nil, fmt.Errorf("core: injecting plan for %s: %w", params.Name, err)
	}
	return &Artifacts{
		Params:     params,
		Program:    p,
		Optimized:  optimized,
		Profile:    prof,
		Analysis:   an,
		TrainInput: trainInput,
	}, nil
}

// BuildWithProfile builds the application's binary and optimizes it
// from a previously collected profile (see profile.Save/Load) instead
// of running a fresh training simulation — the decoupled deployment
// flow, where profiles come from production machines.
func BuildWithProfile(app workload.App, prof *profile.Profile, opts Options) (*Artifacts, error) {
	params, err := workload.ParamsFor(app)
	if err != nil {
		return nil, err
	}
	p, err := workload.Build(params)
	if err != nil {
		return nil, err
	}
	return OptimizeFromProfile(p, params, prof, 0, opts)
}

// Reoptimize re-runs the Twig analysis on the already-collected profile
// under opts.Opt and relinks, returning artifacts that share a's binary
// and profile. Sensitivity sweeps over analysis parameters (prefetch
// distance, coalesce mask width, coalescing on/off) reuse the profile
// this way, exactly as the real system would reuse one production
// profile for many optimization trials.
func (a *Artifacts) Reoptimize(opts Options) (*Artifacts, error) {
	return OptimizeFromProfile(a.Program, a.Params, a.Profile, a.TrainInput, opts)
}

// RunProgram simulates any variant of the application's binary
// (a.Program, a.Optimized, or a reordered or re-optimized one) under a
// scheme instance outside the table (sweeps, ablations, extensions).
func (a *Artifacts) RunProgram(prog *program.Program, input int, opts Options, scheme prefetcher.Scheme) (*pipeline.Result, error) {
	cfg := machineConfig(opts, a.Params)
	cfg.Scheme = scheme
	return pipeline.Run(prog, a.Params.InputPhase(input, EvalPhase), cfg)
}

// RunOptimized simulates an optimized binary, such as one relinked from
// another analysis, under the Twig machine configuration.
func (a *Artifacts) RunOptimized(optimized *program.Program, input int, opts Options) (*pipeline.Result, error) {
	return a.RunProgram(optimized, input, opts, prefetcher.NewBaseline(opts.BTB, opts.PrefetchBuffer, false))
}

// schemeConfig returns the machine configuration and program variant
// for one named scheme from its Schemes entry — shared by RunScheme,
// grouped RunSchemes and the sampled and checkpointed runners, so the
// execution paths cannot drift apart.
func (a *Artifacts) schemeConfig(name string, opts Options) (pipeline.Config, *program.Program, error) {
	spec, err := LookupScheme(name)
	if err != nil {
		return pipeline.Config{}, nil, fmt.Errorf("core: %w", err)
	}
	cfg := machineConfig(opts, a.Params)
	// Each scheme's run nests under its own "scheme:<name>" ledger
	// span, replacing the caller's parent span: grouped and sequential
	// execution then produce the same span tree, and concurrent
	// consumers never share a span.
	cfg.Telemetry.Span = opts.Telemetry.Span.Child("scheme:"+name, "sim")
	spec.Setup(&cfg, opts)
	if spec.Optimized {
		return cfg, a.Optimized, nil
	}
	return cfg, a.Program, nil
}

// RunScheme simulates one named scheme (see SchemeNames).
func (a *Artifacts) RunScheme(name string, input int, opts Options) (*pipeline.Result, error) {
	cfg, prog, err := a.schemeConfig(name, opts)
	if err != nil {
		return nil, err
	}
	res, err := pipeline.Run(prog, a.Params.InputPhase(input, EvalPhase), cfg)
	endSchemeSpan(cfg, err)
	return res, err
}

// endSchemeSpan closes the "scheme:<name>" ledger span schemeConfig
// opened for this configuration.
func endSchemeSpan(cfg pipeline.Config, err error) {
	sp := cfg.Telemetry.Span
	if sp == nil {
		return
	}
	sp.AttrBool("ok", err == nil)
	sp.End()
}

// Groupable reports whether opts permits simulating several schemes
// concurrently over one shared stream: it does unless opts attach an
// observer (Observed), which forces the sequential fallback.
func Groupable(opts Options) bool { return !Observed(opts) }

// RunSchemes simulates the named schemes for one input, sharing work
// where it can: schemes that simulate the same program variant (twig
// runs the optimized binary, everything else the unmodified one) form
// a group fed by a single broadcast stream via pipeline.RunGroup, and
// the groups themselves run concurrently. Results are keyed by scheme
// name and are bit-identical to individual RunScheme calls. When opts
// carries observers (Groupable is false) every scheme runs
// sequentially through RunScheme instead.
func (a *Artifacts) RunSchemes(names []string, input int, opts Options) (map[string]*pipeline.Result, error) {
	out := make(map[string]*pipeline.Result, len(names))
	uniq := make([]string, 0, len(names))
	// Validate by lookup alone: the schemeConfig call below is the one
	// that creates each scheme's ledger span, and it must happen exactly
	// once per scheme so span paths carry no spurious sibling ordinals.
	for _, n := range names {
		if _, err := LookupScheme(n); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if _, dup := out[n]; !dup {
			out[n] = nil
			uniq = append(uniq, n)
		}
	}
	if !Groupable(opts) {
		for _, n := range uniq {
			res, err := a.RunScheme(n, input, opts)
			if err != nil {
				return nil, err
			}
			out[n] = res
		}
		return out, nil
	}

	type group struct {
		prog  *program.Program
		names []string
		cfgs  []pipeline.Config
	}
	var groups []*group
	byProg := make(map[*program.Program]*group)
	for _, n := range uniq {
		cfg, prog, _ := a.schemeConfig(n, opts)
		g := byProg[prog]
		if g == nil {
			g = &group{prog: prog}
			byProg[prog] = g
			groups = append(groups, g)
		}
		g.names = append(g.names, n)
		g.cfgs = append(g.cfgs, cfg)
	}

	in := a.Params.InputPhase(input, EvalPhase)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			res, err := pipeline.RunGroup(g.prog, in, g.cfgs)
			for _, cfg := range g.cfgs {
				endSchemeSpan(cfg, err)
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for i, n := range g.names {
				out[n] = res[i]
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Input exposes the app's exec input for ad-hoc runs.
func (a *Artifacts) Input(n int) exec.Input { return a.Params.InputPhase(n, EvalPhase) }
