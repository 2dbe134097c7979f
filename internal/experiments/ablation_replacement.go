package experiments

import (
	"fmt"

	"twig/internal/btb"
	"twig/internal/core"
	"twig/internal/metrics"
	"twig/internal/pipeline"
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
					opts := c.Opts
					opts.BTB.Replacement = pol
					key := fmt.Sprintf("repl-%v/%s", pol, app)

					// A different policy changes the profile, so the whole
					// pipeline reruns.
					art := c.artUnder(app, opts, fmt.Sprintf("repl-%v/", pol))
					base, err := c.memoRun(key+"/base", art, func(a *core.Artifacts) (*pipeline.Result, error) {
						return a.RunScheme("baseline", 0, opts)
					})
					if err != nil {
						return err
					}
					tw, err := c.memoRun(key+"/twig", art, func(a *core.Artifacts) (*pipeline.Result, error) {
						return a.RunScheme("twig", 0, opts)
					})
					if err != nil {
						return err
					}
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
