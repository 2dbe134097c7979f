package experiments

import (
	"fmt"

	"twig/internal/core"
	"twig/internal/metrics"
	"twig/internal/pipeline"
)

func init() {
	register(Experiment{
		ID:    "ablation-tage",
		Title: "Ablation: structural TAGE vs statistical direction model",
		Paper: "(not in paper) — Twig's relative results must not depend on the direction-predictor model. Note: synthetic branch outcomes are i.i.d. Bernoulli, so TAGE converges to the (high) entropy floor; the statistical model is calibrated to real TAGE-SC-L rates on real binaries and is the default",
		Run: func(c *Context) error {
			t := metrics.NewTable("app",
				"stat mispredict/KI", "tage mispredict/KI",
				"stat twig % of ideal", "tage twig % of ideal")
			for _, app := range c.SweepApps() {
				// Statistical model numbers come from the shared caches.
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

				// TAGE runs.
				tOpts := c.Opts
				tOpts.Pipeline.UseTAGE = true
				baseT, err := c.memoRun(fmt.Sprintf("tage-base/%s", app), c.art(app, 0), func(a *core.Artifacts) (*pipeline.Result, error) {
					return a.RunScheme("baseline", 0, tOpts)
				})
				if err != nil {
					return err
				}
				idealT, err := c.memoRun(fmt.Sprintf("tage-ideal/%s", app), c.art(app, 0), func(a *core.Artifacts) (*pipeline.Result, error) {
					return a.RunScheme("ideal", 0, tOpts)
				})
				if err != nil {
					return err
				}
				twT, err := c.memoRun(fmt.Sprintf("tage-twig/%s", app), c.art(app, 0), func(a *core.Artifacts) (*pipeline.Result, error) {
					return a.RunScheme("twig", 0, tOpts)
				})
				if err != nil {
					return err
				}

				mpkiStat := float64(base.CondMispredicts) / float64(base.Original) * 1000
				mpkiTage := float64(baseT.CondMispredicts) / float64(baseT.Original) * 1000
				statPct := metrics.PercentOfIdeal(
					metrics.Speedup(base.IPC(), tw.IPC()),
					metrics.Speedup(base.IPC(), ideal.IPC()))
				tagePct := metrics.PercentOfIdeal(
					metrics.Speedup(baseT.IPC(), twT.IPC()),
					metrics.Speedup(baseT.IPC(), idealT.IPC()))
				t.Row(string(app), mpkiStat, mpkiTage, statPct, tagePct)
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})
}
