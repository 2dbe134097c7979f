package experiments

import (
	"fmt"

	"twig/internal/btb"
	"twig/internal/metrics"
	"twig/internal/runner"
)

func init() {
	register(Experiment{
		ID:    "ablation-replacement",
		Title: "Ablation: BTB replacement policy (LRU / FIFO / random) with and without Twig",
		Paper: "(not in paper) — the paper's baseline is LRU; Twig's benefit should not hinge on the victim policy",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "policy", "base MPKI", "twig sp%", "twig cover%")
			for _, app := range c.SweepApps() {
				for _, pol := range []btb.Replacement{btb.ReplaceLRU, btb.ReplaceFIFO, btb.ReplaceRandom} {
					// A different policy changes the profile, so each
					// policy trains its own binary.
					opts := c.Opts
					opts.BTB.Replacement = pol
					runs, err := c.schemesUnder(app, 0, opts, runner.Training{Opts: opts}, "baseline", "twig")
					if err != nil {
						return err
					}
					base, tw := runs["baseline"], runs["twig"]
					t.Row(string(app), pol.String(), base.MPKI(),
						metrics.Speedup(base.IPC(), tw.IPC()),
						metrics.Coverage(base.BTB.DirectMisses(), tw.BTB.DirectMisses()))
				}
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})
}
