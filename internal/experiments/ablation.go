package experiments

import (
	"fmt"

	"twig/internal/core"
	"twig/internal/metrics"
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
				base, err := c.Scheme(app, 0, "baseline")
				if err != nil {
					return err
				}
				ideal, err := c.Scheme(app, 0, "ideal")
				if err != nil {
					return err
				}
				tw, err := c.Scheme(app, 0, "twig")
				if err != nil {
					return err
				}
				near, err := c.memoRun(fmt.Sprintf("nearest/%s", app), c.art(app, 0), func(a *core.Artifacts) (*r, error) {
					optCfg := c.Opts.Opt
					optCfg.NearestSite = true
					prog, _, err := a.Reoptimize(optCfg)
					if err != nil {
						return nil, err
					}
					return a.RunOptimized(prog, 0, c.Opts)
				})
				if err != nil {
					return err
				}
				idealSp := metrics.Speedup(base.IPC(), ideal.IPC())
				t.Row(string(app),
					metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), tw.IPC()), idealSp),
					metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), near.IPC()), idealSp),
					tw.Prefetch.Accuracy()*100,
					near.Prefetch.Accuracy()*100)
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
					base, err := c.Scheme(app, 0, "baseline")
					if err != nil {
						return err
					}
					ideal, err := c.Scheme(app, 0, "ideal")
					if err != nil {
						return err
					}
					tw, err := c.memoRun(fmt.Sprintf("minprob%.2f/%s", p, app), c.art(app, 0), func(a *core.Artifacts) (*r, error) {
						optCfg := c.Opts.Opt
						optCfg.MinProbability = p
						prog, _, err := a.Reoptimize(optCfg)
						if err != nil {
							return nil, err
						}
						return a.RunOptimized(prog, 0, c.Opts)
					})
					if err != nil {
						return err
					}
					idealSp := metrics.Speedup(base.IPC(), ideal.IPC())
					sp = append(sp, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), tw.IPC()), idealSp))
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
					ideal, err := c.Scheme(app, 0, "ideal")
					if err != nil {
						return err
					}
					opts := c.Opts
					opts.SampleRate = rate
					key := fmt.Sprintf("srate%d/%s", rate, app)
					// The sampling rate shapes the profile, so each rate
					// trains its own artifacts.
					art := c.artUnder(app, opts, fmt.Sprintf("srate%d/", rate))
					tw, err := c.memoRun(key, art, func(a *core.Artifacts) (*r, error) {
						return a.RunScheme("twig", 0, opts)
					})
					if err != nil {
						return err
					}
					idealSp := metrics.Speedup(base.IPC(), ideal.IPC())
					sp = append(sp, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), tw.IPC()), idealSp))
					cov = append(cov, metrics.Coverage(base.BTB.DirectMisses(), tw.BTB.DirectMisses()))
				}
				t.Row(rate, metrics.Mean(sp), metrics.Mean(cov))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})
}
