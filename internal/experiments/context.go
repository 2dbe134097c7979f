// Package experiments regenerates every table and figure of the
// paper's characterization (§2) and evaluation (§4) sections. Each
// experiment is a named entry in the registry (fig1..fig28, tab1..tab3,
// plus ablations); `go run ./cmd/experiments` runs them all and prints
// the same rows/series the paper reports, and bench_test.go exposes one
// testing.B benchmark per experiment.
//
// A Context routes every per-application artifact (built binaries,
// profiles, analyses) and simulation through an internal/runner job
// graph, so results are memoized across experiments, simulations fan
// out over a worker pool when a parallel runner is attached, and — with
// a persistent cache — rerunning a sweep re-executes only what changed.
package experiments

import (
	"bytes"
	stdctx "context"
	"fmt"
	"io"
	"sort"
	"sync"

	"twig/internal/core"
	"twig/internal/pipeline"
	"twig/internal/runner"
	"twig/internal/twigd"
	"twig/internal/workload"
)

// Context carries shared configuration and the job runner that
// memoizes results. Contexts may be used from multiple goroutines;
// concurrent experiments share one execution per job.
type Context struct {
	// Opts is the evaluation operating point (Table 1 machine, 8K BTB,
	// paper analysis parameters).
	Opts core.Options
	// Apps is the evaluated application set (default: all nine).
	Apps []workload.App
	// Out receives rendered tables.
	Out io.Writer

	run *runner.Runner
	ctx stdctx.Context
}

// NewContext returns a context with the paper's defaults; instructions
// bounds each simulation window (the paper simulates 100M-instruction
// traces; the default here is sized to regenerate everything in
// minutes — pass a larger budget to tighten the numbers). The default
// runner is serial and uncached, matching the historical behavior;
// attach a parallel or cache-backed runner with SetRunner.
func NewContext(out io.Writer, instructions int64) *Context {
	opts := core.DefaultOptions()
	if instructions > 0 {
		opts.Pipeline.MaxInstructions = instructions
	}
	// Measure steady state, as the paper's "representative, steady-state"
	// traces do: warm the machine for half a window first.
	opts.Pipeline.Warmup = opts.Pipeline.MaxInstructions / 2
	return &Context{
		Opts: opts,
		Apps: workload.Apps(),
		Out:  out,
		run:  runner.New(runner.Options{Workers: 1}),
		ctx:  stdctx.Background(),
	}
}

// SetRunner replaces the context's job runner (worker pool width,
// result cache, timeouts). Call before running experiments.
func (c *Context) SetRunner(r *runner.Runner) { c.run = r }

// Runner returns the context's job runner (for stats reporting).
func (c *Context) Runner() *runner.Runner { return c.run }

// SetContext sets the cancellation context inherited by every job.
func (c *Context) SetContext(ctx stdctx.Context) { c.ctx = ctx }

// SimConfig projects the context's operating point onto the
// serializable twigd.SimConfig, so the standard matrix can be offered
// to a fleet with hashes that match this context's own jobs.
// TestSimConfigRoundTrip pins the equivalence (twigd.SimConfig.Options
// must reconstruct Opts exactly, canonical-encoding-wise).
func (c *Context) SimConfig() twigd.SimConfig {
	return twigd.SimConfig{
		Instructions:        c.Opts.Pipeline.MaxInstructions,
		Warmup:              c.Opts.Pipeline.Warmup,
		BTBEntries:          c.Opts.BTB.Entries,
		BTBWays:             c.Opts.BTB.Ways,
		FTQSize:             c.Opts.Pipeline.FTQSize,
		PrefetchBuffer:      c.Opts.PrefetchBuffer,
		PrefetchDistance:    c.Opts.Opt.PrefetchDistance,
		CoalesceMaskBits:    c.Opts.Opt.CoalesceMaskBits,
		DisableCoalescing:   c.Opts.Opt.DisableCoalescing,
		SampleRate:          c.Opts.SampleRate,
		ProfileInstructions: c.Opts.ProfileInstructions,
		Epoch:               c.Opts.Telemetry.EpochLength,
		Sample:              c.Opts.Sample,
	}
}

// clone returns a Context sharing this one's runner (and therefore
// its memoized results) but rendering to a different writer.
func (c *Context) clone(out io.Writer) *Context {
	cc := *c
	cc.Out = out
	return &cc
}

// Artifacts returns (building and caching on first use) the app's
// binary, profile and Twig analysis for the given training input.
func (c *Context) Artifacts(app workload.App, train int) (*core.Artifacts, error) {
	v, err := c.run.Result(c.ctx, c.art(app, train))
	if err != nil {
		return nil, err
	}
	return v.(*core.Artifacts), nil
}

// art returns the job that builds the app's artifacts for the given
// training input under the context's options.
func (c *Context) art(app workload.App, train int) *runner.Job {
	return runner.ArtifactsJob(app, train, c.Opts, "")
}

// memo resolves the job with member m's identity whose one dependency
// is the artifacts job art, and returns its payload. f receives the
// job's context (its ledger span rides in it) and the built artifacts.
// Because the dependency is declared, the artifacts are built before
// the job takes a worker slot, and a cache hit serves the payload
// without running f or building the artifacts.
func memo[T any](c *Context, m runner.Member, art *runner.Job, f func(stdctx.Context, *core.Artifacts) (T, error)) (T, error) {
	v, err := c.run.Result(c.ctx, &runner.Job{
		ID:    m.ID,
		Kind:  m.Kind,
		Hash:  m.Hash,
		Codec: m.Codec,
		Deps:  []*runner.Job{art},
		Run: func(jctx stdctx.Context, deps []any) (any, error) {
			return f(jctx, deps[0].(*core.Artifacts))
		},
	})
	if err != nil {
		var zero T
		return zero, fmt.Errorf("experiments: %s: %w", m.ID, err)
	}
	return v.(T), nil
}

// memoRun caches a simulation outside the scheme table (a scheme
// instance or binary no core.Schemes entry builds) that f runs on the
// artifacts art builds, under an explicit memo key. The key must
// uniquely identify the run given the context's operating point; it is
// also the content-hash seed for the persistent cache
// (runner.SimMember), so a warm cache serves the result without
// executing f or building the artifacts. Executed runs credit their
// instruction count to the runner's aggregate kIPS counter; cache
// replays never reach f and credit nothing. Table schemes run through
// schemesUnder instead, which derives their identity.
func (c *Context) memoRun(key string, art *runner.Job, f func(*core.Artifacts) (*pipeline.Result, error)) (*pipeline.Result, error) {
	return memo(c, runner.SimMember(key, c.Opts), art, func(_ stdctx.Context, a *core.Artifacts) (*pipeline.Result, error) {
		res, err := f(a)
		if err == nil {
			c.run.AddSimInstructions(res.Instructions)
		}
		return res, err
	})
}

// memoDerived caches a JSON-serializable derived statistic (3C
// classification counts, stream fractions, working-set sizes) that an
// instrumented or auxiliary run on the artifacts art builds computes,
// under the same keying and cache rules as memoRun.
func memoDerived[T any](c *Context, key string, art *runner.Job, f func(*core.Artifacts) (T, error)) (T, error) {
	h := ""
	if runner.Cacheable(c.Opts) {
		h = runner.HashDerived(key, c.Opts)
	}
	m := runner.Member{ID: "derived/" + key, Kind: runner.KindDerived, Hash: h, Codec: runner.JSONCodec[T]{}}
	return memo(c, m, art, func(_ stdctx.Context, a *core.Artifacts) (T, error) { return f(a) })
}

// Scheme returns the cached run of one named scheme (core.SchemeNames)
// for (app, input) at the context's operating point, as a job of its
// own (see schemesUnder).
func (c *Context) Scheme(app workload.App, input int, name string) (*pipeline.Result, error) {
	return c.schemeUnder(app, input, c.Opts, runner.Training{Opts: c.Opts}, name)
}

// Schemes returns the cached runs of the named schemes (core.SchemeNames)
// for (app, input) at the context's operating point, keyed by scheme
// name, as one shared-stream group (see schemesUnder). Payloads and
// cache entries are identical to Scheme's, so either path warms the
// other.
func (c *Context) Schemes(app workload.App, input int, names ...string) (map[string]*pipeline.Result, error) {
	return c.schemesUnder(app, input, c.Opts, runner.Training{Opts: c.Opts}, names...)
}

// schemesUnder is the one way the experiments run table schemes: the
// context's own runs, and every sweep and ablation that reruns them
// with one knob changed. It resolves the named schemes' runs of (app,
// input) under opts, where an Optimized scheme runs the binary that tr
// names, through runner.Runner.Schemes with the context's options as
// home: one name is a job of its own, several are one group. The
// identity comes from runner.TableMembers, so a variant at the context's
// operating point is the table run, and a sweep point hashes as
// RunMatrix and twigd workers would for its options. The binary comes
// from runner.TrainingJob: the context's own artifacts when tr trains
// as the context does, a re-analysis of the context's profile when only
// the analysis configuration differs, and a retraining otherwise.
func (c *Context) schemesUnder(app workload.App, input int, opts core.Options, tr runner.Training, names ...string) (map[string]*pipeline.Result, error) {
	out, err := c.run.Schemes(c.ctx, app, input, names, opts, tr, c.Opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: schemes %s/%d: %w", app, input, err)
	}
	return out, nil
}

// schemeUnder is schemesUnder for one scheme, as a job of its own.
func (c *Context) schemeUnder(app workload.App, input int, opts core.Options, tr runner.Training, name string) (*pipeline.Result, error) {
	runs, err := c.schemesUnder(app, input, opts, tr, name)
	if err != nil {
		return nil, err
	}
	return runs[name], nil
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the registry key ("fig16", "tab3", "ablation-sites").
	ID string
	// Title describes what is reproduced.
	Title string
	// Paper summarizes what the paper reports for this experiment, for
	// side-by-side comparison in the output.
	Paper string
	// Run renders the experiment into ctx.Out.
	Run func(ctx *Context) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments in their registration order
// (figure order).
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// RunOne executes an experiment with its header. When the runner
// carries a ledger, the experiment's rendering is recorded as an
// "exp:<id>" root span (its simulations are separate "job:" roots —
// jobs are shared across experiments, so parenting them under any one
// experiment would make the ledger depend on scheduling).
func (c *Context) RunOne(e Experiment) error {
	sp := c.run.Ledger().Begin("exp:"+e.ID, "exp")
	fmt.Fprintf(c.Out, "\n== %s: %s ==\n", e.ID, e.Title)
	if e.Paper != "" {
		fmt.Fprintf(c.Out, "paper: %s\n", e.Paper)
	}
	err := e.Run(c)
	sp.AttrBool("ok", err == nil)
	sp.End()
	return err
}

// RunSelected executes the experiments named by ids (nil = the whole
// registry, in figure order). With parallel > 1, experiments run
// concurrently — each rendering into a private buffer that is flushed
// to c.Out in registration order, and all simulations flowing through
// the shared runner — so the output is byte-identical to a serial run
// regardless of worker count or completion order. On the first
// experiment error, everything rendered before (and by) the failing
// experiment is flushed, matching serial behavior.
func (c *Context) RunSelected(ids []string, parallel int) error {
	var exps []Experiment
	if len(ids) == 0 {
		exps = All()
	} else {
		for _, id := range ids {
			e, ok := ByID(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (known: %v)", id, IDs())
			}
			exps = append(exps, e)
		}
	}
	if parallel <= 1 {
		for _, e := range exps {
			if err := c.RunOne(e); err != nil {
				return err
			}
		}
		return nil
	}
	bufs := make([]bytes.Buffer, len(exps))
	errs := make([]error, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			errs[i] = c.clone(&bufs[i]).RunOne(e)
		}(i, e)
	}
	wg.Wait()
	for i := range exps {
		if _, err := bufs[i].WriteTo(c.Out); err != nil {
			return err
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}
