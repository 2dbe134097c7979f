package experiments

import (
	"fmt"

	"twig/internal/btb"
	"twig/internal/core"
	"twig/internal/metrics"
	"twig/internal/runner"
	"twig/internal/workload"
)

// sweepPoint runs baseline/Twig/Shotgun/Confluence for one application
// under modified options, trained under those options (the profile
// depends on the BTB geometry), and returns each scheme's raw speedup
// percentage. The BTB-size and associativity sweeps report raw speedups
// rather than %-of-ideal because large BTBs drive the ideal headroom
// toward zero at this workload scale, which makes a ratio numerically
// meaningless; so no ideal run is made (the ideal BTB ignores the swept
// geometry anyway).
func (c *Context) sweepPoint(app workload.App, opts core.Options) (twig, shotgun, confluence float64, err error) {
	runs, err := c.schemesUnder(app, 0, opts, runner.Training{Opts: opts}, "baseline", "twig", "shotgun", "confluence")
	if err != nil {
		return 0, 0, 0, err
	}
	base := runs["baseline"].IPC()
	return metrics.Speedup(base, runs["twig"].IPC()),
		metrics.Speedup(base, runs["shotgun"].IPC()),
		metrics.Speedup(base, runs["confluence"].IPC()),
		nil
}

// percentOfIdeal returns run's speedup over the app's baseline as a
// percentage of the ideal BTB's, both at the context's operating point.
func (c *Context) percentOfIdeal(app workload.App, run *r) (float64, error) {
	base, err := c.Scheme(app, 0, "baseline")
	if err != nil {
		return 0, err
	}
	ideal, err := c.Scheme(app, 0, "ideal")
	if err != nil {
		return 0, err
	}
	return metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), run.IPC()), metrics.Speedup(base.IPC(), ideal.IPC())), nil
}

func init() {
	register(Experiment{
		ID:    "fig23",
		Title: "Speedup vs BTB capacity (2K-64K entries)",
		Paper: "Twig outperforms Shotgun and Confluence at every BTB size (raw speedups here: beyond 8K entries the ideal headroom collapses at this scale, so a %-of-ideal ratio is meaningless)",
		Run: func(c *Context) error {
			sizes := []int{2048, 4096, 8192, 16384, 32768, 65536}
			t := metrics.NewTable("entries", "twig sp%", "shotgun sp%", "confluence sp%")
			for _, s := range sizes {
				var tws, shs, cfs []float64
				for _, app := range c.SweepApps() {
					opts := c.Opts
					opts.BTB = btb.Config{Entries: s, Ways: c.Opts.BTB.Ways}
					tw, sh, cf, err := c.sweepPoint(app, opts)
					if err != nil {
						return err
					}
					tws, shs, cfs = append(tws, tw), append(shs, sh), append(cfs, cf)
				}
				t.Row(fmt.Sprintf("%dK", s/1024), metrics.Mean(tws), metrics.Mean(shs), metrics.Mean(cfs))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig24",
		Title: "Speedup vs BTB associativity (4-128 ways)",
		Paper: "Twig outperforms Shotgun and Confluence at every associativity (raw speedups; see fig23's note)",
		Run: func(c *Context) error {
			ways := []int{4, 8, 16, 32, 64, 128}
			t := metrics.NewTable("ways", "twig sp%", "shotgun sp%", "confluence sp%")
			for _, w := range ways {
				var tws, shs, cfs []float64
				for _, app := range c.SweepApps() {
					opts := c.Opts
					opts.BTB = btb.Config{Entries: c.Opts.BTB.Entries, Ways: w}
					tw, sh, cf, err := c.sweepPoint(app, opts)
					if err != nil {
						return err
					}
					tws, shs, cfs = append(tws, tw), append(shs, sh), append(cfs, cf)
				}
				t.Row(w, metrics.Mean(tws), metrics.Mean(shs), metrics.Mean(cfs))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig25",
		Title: "% of ideal-BTB speedup vs prefetch-buffer size (8-256 entries)",
		Paper: "Twig scales up to ~128 entries, then diminishing returns; prior work does not scale",
		Run: func(c *Context) error {
			return c.twigSweep("buffer entries", []int{8, 16, 32, 64, 128, 256}, func(o *core.Options, s int) { o.PrefetchBuffer = s })
		},
	})

	register(Experiment{
		ID:    "fig26",
		Title: "% of ideal-BTB speedup vs prefetch distance (0-50 cycles)",
		Paper: "best at 15-25 cycles: too small is untimely, too large discards accurate predecessors",
		Run: func(c *Context) error {
			return c.twigSweep("distance (cycles)", []int{0, 5, 10, 15, 20, 25, 30, 40, 50}, func(o *core.Options, d int) { o.Opt.PrefetchDistance = float64(d) })
		},
	})

	register(Experiment{
		ID:    "fig27",
		Title: "% of ideal-BTB speedup vs coalesce bitmask width (1-64 bits)",
		Paper: "an 8-bit mask captures most of the benefit",
		Run: func(c *Context) error {
			return c.twigSweep("mask bits", []int{1, 2, 4, 8, 16, 32, 64}, func(o *core.Options, w int) { o.Opt.CoalesceMaskBits = w })
		},
	})

	register(Experiment{
		ID:    "fig28",
		Title: "% of ideal-BTB speedup vs FTQ depth (1-64)",
		Paper: "Twig's relative benefit is stable across run-ahead depths",
		Run: func(c *Context) error {
			depths := []int{1, 2, 4, 8, 16, 24, 32, 64}
			t := metrics.NewTable("FTQ entries", "twig % of ideal")
			for _, d := range depths {
				var tws []float64
				for _, app := range c.SweepApps() {
					opts := c.Opts
					opts.Pipeline.FTQSize = d
					// Every depth runs the context's binary, trained at
					// the default depth.
					runs, err := c.schemesUnder(app, 0, opts, runner.Training{Opts: c.Opts}, "baseline", "ideal", "twig")
					if err != nil {
						return err
					}
					base := runs["baseline"].IPC()
					tws = append(tws, metrics.PercentOfIdeal(metrics.Speedup(base, runs["twig"].IPC()), metrics.Speedup(base, runs["ideal"].IPC())))
				}
				t.Row(d, metrics.Mean(tws))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})
}

// twigSweep renders a one-column table of Twig's % of ideal-BTB speedup,
// averaged over the sweep apps, with one row per value of a knob that
// set applies to the context's options. Each point trains under its own
// options: a knob training does not read runs on the context's binary,
// and one only the analysis reads re-analyzes the context's profile.
func (c *Context) twigSweep(knob string, values []int, set func(*core.Options, int)) error {
	t := metrics.NewTable(knob, "twig % of ideal")
	for _, v := range values {
		var tws []float64
		for _, app := range c.SweepApps() {
			opts := c.Opts
			set(&opts, v)
			tw, err := c.schemeUnder(app, 0, opts, runner.Training{Opts: opts}, "twig")
			if err != nil {
				return err
			}
			pct, err := c.percentOfIdeal(app, tw)
			if err != nil {
				return err
			}
			tws = append(tws, pct)
		}
		t.Row(v, metrics.Mean(tws))
	}
	_, err := fmt.Fprint(c.Out, t.String())
	return err
}
