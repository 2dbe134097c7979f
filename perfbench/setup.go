package main

import (
	"fmt"
	"io"

	"twig/internal/btb"
	"twig/internal/core"
	"twig/internal/experiments"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
	"twig/internal/profile"
	"twig/internal/program"
	"twig/internal/twigopt"
	"twig/internal/workload"
)

// operatingPoint returns the experiments' options at the benchmark's
// window: Table 1 machine, 8K BTB, paper analysis parameters, half a
// window of warm-up.
func operatingPoint() core.Options {
	return experiments.NewContext(io.Discard, window).Opts
}

// simulated is the number of original instructions one run simulates,
// warm-up included.
func simulated(opts core.Options) int64 {
	return opts.Pipeline.Warmup + opts.Pipeline.MaxInstructions
}

// trained is one app's binary and training profile.
type trained struct {
	App    workload.App
	Params workload.Params
	Prog   *program.Program
	Prof   *profile.Profile
	Train  int
}

// buildAndProfile builds app's binary and collects its training
// profile on input train, with spans around each call when tr is on.
func buildAndProfile(app workload.App, train int, opts core.Options, tr *tracer) (*trained, error) {
	params, err := workload.ParamsFor(app)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("workload.Build", -1)
	p, err := workload.Build(params)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", app, err)
	}
	sp = tr.begin("core.CollectProfile", -1)
	prof, err := core.CollectProfile(p, params, train, opts)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", app, err)
	}
	return &trained{App: app, Params: params, Prog: p, Prof: prof, Train: train}, nil
}

// optimize analyzes the profile under cfg and injects the plan, with
// spans around both calls under parent.
func (t *trained) optimize(cfg twigopt.Config, tr *tracer, parent int) (*program.Program, *twigopt.Analysis, error) {
	sp := tr.begin("twigopt.Analyze", parent)
	an, err := twigopt.Analyze(t.Prog, t.Prof, cfg)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("analyze %s: %w", t.App, err)
	}
	sp = tr.begin("program.Inject", parent)
	opt, err := t.Prog.Inject(an.Plan)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("inject %s: %w", t.App, err)
	}
	return opt, an, nil
}

// artifacts assembles core's per-app bundle around an optimized binary.
func (t *trained) artifacts(opt *program.Program, an *twigopt.Analysis) *core.Artifacts {
	return &core.Artifacts{Params: t.Params, Program: t.Prog, Optimized: opt,
		Profile: t.Prof, Analysis: an, TrainInput: t.Train}
}

// schemeConfig assembles the pipeline configuration and program
// variant core uses for the named scheme, so traced runs can hand the
// pipeline a wrapped source and scheme. The traced run checks that
// every such run's digest equals core.RunScheme's, which keeps this
// table honest.
func schemeConfig(a *core.Artifacts, name string, opts core.Options) (pipeline.Config, *program.Program, error) {
	cfg := opts.Pipeline
	cfg.BackendCPI = a.Params.BackendCPI
	cfg.CondMispredictRate = a.Params.CondMispredictRate
	cfg.Telemetry = pipeline.Telemetry{}
	prog := a.Program
	switch name {
	case "baseline":
		cfg.Scheme = prefetcher.NewBaseline(opts.BTB, 0, false)
	case "ideal":
		cfg.Scheme = prefetcher.NewIdeal()
	case "twig":
		cfg.Scheme = prefetcher.NewBaseline(opts.BTB, opts.PrefetchBuffer, false)
		prog = a.Optimized
	case "shotgun":
		cfg.RASEntries = 1536
		cfg.Scheme = prefetcher.NewShotgun(prefetcher.DefaultShotgunConfig())
	case "confluence":
		c := prefetcher.DefaultConfluenceConfig()
		c.BTB = opts.BTB
		cfg.Scheme = prefetcher.NewConfluence(c)
	case "hierarchy":
		h := btb.DefaultHierarchyConfig()
		h.L1 = opts.BTB
		cfg.Scheme = prefetcher.NewHierarchy(h)
	case "shadow":
		s := prefetcher.DefaultShadowConfig()
		s.BTB = opts.BTB
		cfg.Scheme = prefetcher.NewShadow(s)
	default:
		return pipeline.Config{}, nil, fmt.Errorf("unknown scheme %q", name)
	}
	return cfg, prog, nil
}
