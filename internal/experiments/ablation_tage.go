package experiments

import (
	"fmt"

	"twig/internal/metrics"
	"twig/internal/runner"
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

				// TAGE runs, on the context's binary.
				tOpts := c.Opts
				tOpts.Pipeline.UseTAGE = true
				runs, err := c.schemesUnder(app, 0, tOpts, runner.Training{Opts: c.Opts}, "baseline", "ideal", "twig")
				if err != nil {
					return err
				}
				baseT, idealT, twT := runs["baseline"], runs["ideal"], runs["twig"]

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
