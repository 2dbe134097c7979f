package experiments

import (
	stdctx "context"
	"fmt"

	"twig/internal/core"
	"twig/internal/metrics"
	"twig/internal/runner"
	"twig/internal/sampling"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// Sampled evaluation through the job graph: sampled estimates are
// content-addressed cache entries exactly like exact results, so a
// warm cache replays them without simulating.

// sampleSpec returns the context's sampling spec, defaulting — when
// Opts.Sample is unset — to a spec sized to the context's window: 20
// intervals, one in four measured, a quarter-interval of detailed
// warmup each. The default keeps the "sampled" experiment runnable
// without flags while an explicit -sample spec overrides everything.
func (c *Context) sampleSpec() sampling.Spec {
	if c.Opts.Sample.Enabled() {
		return c.Opts.Sample
	}
	interval := c.Opts.Pipeline.MaxInstructions / 20
	if interval < 1 {
		interval = 1
	}
	return sampling.Spec{Interval: interval, Period: 4, Warmup: interval / 4}
}

// Sampled returns the cached interval-sampled estimate of one named
// scheme (core.SchemeNames) for (app, input) under the context's
// sampling spec. The job is KindSampled — it shares the runner's
// "sims" telemetry bucket — and its hash covers the spec, so changing
// the spec re-estimates while exact results stay cached.
func (c *Context) Sampled(app workload.App, input int, scheme string) (*sampling.Estimate, error) {
	memoKey, err := runner.SchemeMemoKey(scheme, app, input)
	if err != nil {
		return nil, fmt.Errorf("experiments: unknown scheme %q", scheme)
	}
	opts := c.Opts
	opts.Sample = c.sampleSpec()
	key := "sampled/" + memoKey
	h := ""
	if runner.Cacheable(opts) {
		h = runner.HashSampled(key, opts)
	}
	m := runner.Member{ID: "run/" + key, Kind: runner.KindSampled, Hash: h, Codec: runner.JSONCodec[*sampling.Estimate]{}}
	return memo(c, m, c.art(app, 0), func(jctx stdctx.Context, a *core.Artifacts) (*sampling.Estimate, error) {
		o := opts
		if sp := telemetry.SpanFromContext(jctx); sp != nil {
			o.Telemetry.Span = sp
		}
		est, err := a.RunSchemeSampled(scheme, input, o)
		if err == nil {
			c.run.AddSimInstructions(est.DetailedInstructions)
		}
		return est, err
	})
}

// The "sampled" experiment validates interval sampling against the
// exact runs the rest of the harness computes anyway: per app, the
// sampled 95% CI should bracket the exact value while simulating a
// small fraction of the instructions in detail.
func init() {
	register(Experiment{
		ID:    "sampled",
		Title: "Sampled simulation vs exact: CI calibration and work reduction",
		Paper: "methodology extension (SMARTS-style interval sampling); not a paper figure",
		Run: func(c *Context) error {
			spec := c.sampleSpec()
			fmt.Fprintf(c.Out, "spec: interval=%d period=%d warmup=%d conf=%.2f\n",
				spec.Interval, spec.Period, spec.Warmup, spec.Level())
			t := metrics.NewTable("app", "scheme", "exact IPC", "sampled IPC", "95% CI", "in CI", "exact MPKI", "sampled MPKI", "work red.")
			for _, app := range c.SweepApps() {
				for _, scheme := range []string{"baseline", "twig"} {
					exact, err := c.Scheme(app, 0, scheme)
					if err != nil {
						return err
					}
					est, err := c.Sampled(app, 0, scheme)
					if err != nil {
						return err
					}
					t.Row(string(app), scheme,
						exact.IPC(), est.IPC.Value,
						fmt.Sprintf("[%.3f, %.3f]", est.IPC.Lo, est.IPC.Hi),
						boolMark(est.IPC.Contains(exact.IPC())),
						exact.MPKI(), est.MPKI.Value,
						fmt.Sprintf("%.1fx", est.WorkReduction))
				}
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})
}

// boolMark renders a containment check for the sampled table.
func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}
