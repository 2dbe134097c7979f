package experiments

import (
	"fmt"

	"twig/internal/metrics"
	"twig/internal/runner"
)

// The ablations probe the design choices DESIGN.md calls out, beyond
// the paper's own sweeps: the conditional-probability site selection
// (vs a locality-only heuristic), the accuracy threshold, and the
// profiler's sampling rate.
func init() {
	register(Experiment{
		ID:    "ablation-sites",
		Title: "Ablation: conditional-probability site selection vs nearest-predecessor heuristic",
		Paper: "(not in paper) — isolates the value of Twig's probability-based accuracy constraint",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "twig % of ideal", "nearest-site % of ideal", "twig acc %", "nearest acc %")
			for _, app := range c.SweepApps() {
				tw, err := c.Scheme(app, 0, "twig")
				if err != nil {
					return err
				}
				opts := c.Opts
				opts.Opt.NearestSite = true
				near, err := c.schemeUnder(app, 0, opts, runner.Training{Opts: opts}, "twig")
				if err != nil {
					return err
				}
				twPct, err := c.percentOfIdeal(app, tw)
				if err != nil {
					return err
				}
				nearPct, err := c.percentOfIdeal(app, near)
				if err != nil {
					return err
				}
				t.Row(string(app), twPct, nearPct, tw.Prefetch.Accuracy()*100, near.Prefetch.Accuracy()*100)
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "ablation-minprob",
		Title: "Ablation: accuracy threshold (MinProbability) sweep",
		Paper: "(not in paper) — the coverage/accuracy trade of the probability cut",
		Run: func(c *Context) error {
			probs := []float64{0, 0.02, 0.08, 0.2, 0.5}
			t := metrics.NewTable("min probability", "twig % of ideal", "accuracy %", "dyn overhead %")
			for _, p := range probs {
				var sp, acc, oh []float64
				for _, app := range c.SweepApps() {
					opts := c.Opts
					opts.Opt.MinProbability = p
					tw, err := c.schemeUnder(app, 0, opts, runner.Training{Opts: opts}, "twig")
					if err != nil {
						return err
					}
					pct, err := c.percentOfIdeal(app, tw)
					if err != nil {
						return err
					}
					sp = append(sp, pct)
					acc = append(acc, tw.Prefetch.Accuracy()*100)
					oh = append(oh, tw.DynamicOverhead()*100)
				}
				t.Row(fmt.Sprintf("%.2f", p), metrics.Mean(sp), metrics.Mean(acc), metrics.Mean(oh))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "ablation-sampling",
		Title: "Ablation: profiler miss-sampling rate",
		Paper: "(not in paper) — production profilers sample sparsely; Twig degrades gracefully",
		Run: func(c *Context) error {
			rates := []int{1, 4, 16, 64}
			t := metrics.NewTable("sample every Nth miss", "twig % of ideal", "coverage %")
			for _, rate := range rates {
				var sp, cov []float64
				for _, app := range c.SweepApps() {
					base, err := c.Scheme(app, 0, "baseline")
					if err != nil {
						return err
					}
					// The sampling rate shapes the profile, so each rate
					// trains its own binary.
					opts := c.Opts
					opts.SampleRate = rate
					tw, err := c.schemeUnder(app, 0, opts, runner.Training{Opts: opts}, "twig")
					if err != nil {
						return err
					}
					pct, err := c.percentOfIdeal(app, tw)
					if err != nil {
						return err
					}
					sp = append(sp, pct)
					cov = append(cov, metrics.Coverage(base.BTB.DirectMisses(), tw.BTB.DirectMisses()))
				}
				t.Row(rate, metrics.Mean(sp), metrics.Mean(cov))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})
}
