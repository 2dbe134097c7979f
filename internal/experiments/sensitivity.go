package experiments

import (
	"fmt"

	"twig/internal/btb"
	"twig/internal/core"
	"twig/internal/metrics"
	"twig/internal/workload"
)

// sweepPoint runs baseline/Twig/Shotgun/Confluence for one application
// under modified options, rebuilding artifacts when the BTB geometry
// differs from the cached one (the profile depends on the BTB), and
// returns each scheme's raw speedup percentage. The BTB-size and
// associativity sweeps report raw speedups rather than %-of-ideal
// because large BTBs drive the ideal headroom toward zero at this
// workload scale, which makes a ratio numerically meaningless; so no
// ideal run is made (the ideal BTB ignores the swept geometry anyway).
func (c *Context) sweepPoint(app workload.App, opts core.Options, key string) (twig, shotgun, confluence float64, err error) {
	art := c.artUnder(app, opts, key+"/")
	run := func(prefix, scheme string) (*r, error) {
		return c.memoRun(prefix+key, art, func(a *core.Artifacts) (*r, error) { return a.RunScheme(scheme, 0, opts) })
	}
	base, err := run("swp-base/", "baseline")
	if err != nil {
		return 0, 0, 0, err
	}
	tw, err := run("swp-twig/", "twig")
	if err != nil {
		return 0, 0, 0, err
	}
	sh, err := run("swp-shot/", "shotgun")
	if err != nil {
		return 0, 0, 0, err
	}
	cf, err := run("swp-conf/", "confluence")
	if err != nil {
		return 0, 0, 0, err
	}
	return metrics.Speedup(base.IPC(), tw.IPC()),
		metrics.Speedup(base.IPC(), sh.IPC()),
		metrics.Speedup(base.IPC(), cf.IPC()),
		nil
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
					tw, sh, cf, err := c.sweepPoint(app, opts, fmt.Sprintf("size%d/%s", s, app))
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
					tw, sh, cf, err := c.sweepPoint(app, opts, fmt.Sprintf("ways%d/%s", w, app))
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
			sizes := []int{8, 16, 32, 64, 128, 256}
			t := metrics.NewTable("buffer entries", "twig % of ideal")
			for _, s := range sizes {
				var tws []float64
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
					opts.PrefetchBuffer = s
					tw, err := c.memoRun(fmt.Sprintf("buf%d/%s", s, app), c.art(app, 0), func(a *core.Artifacts) (*r, error) {
						return a.RunScheme("twig", 0, opts)
					})
					if err != nil {
						return err
					}
					idealSp := metrics.Speedup(base.IPC(), ideal.IPC())
					tws = append(tws, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), tw.IPC()), idealSp))
				}
				t.Row(s, metrics.Mean(tws))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig26",
		Title: "% of ideal-BTB speedup vs prefetch distance (0-50 cycles)",
		Paper: "best at 15-25 cycles: too small is untimely, too large discards accurate predecessors",
		Run: func(c *Context) error {
			distances := []float64{0, 5, 10, 15, 20, 25, 30, 40, 50}
			t := metrics.NewTable("distance (cycles)", "twig % of ideal")
			for _, d := range distances {
				var tws []float64
				for _, app := range c.SweepApps() {
					base, err := c.Scheme(app, 0, "baseline")
					if err != nil {
						return err
					}
					ideal, err := c.Scheme(app, 0, "ideal")
					if err != nil {
						return err
					}
					tw, err := c.memoRun(fmt.Sprintf("dist%.0f/%s", d, app), c.art(app, 0), func(a *core.Artifacts) (*r, error) {
						optCfg := c.Opts.Opt
						optCfg.PrefetchDistance = d
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
					tws = append(tws, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), tw.IPC()), idealSp))
				}
				t.Row(fmt.Sprintf("%.0f", d), metrics.Mean(tws))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig27",
		Title: "% of ideal-BTB speedup vs coalesce bitmask width (1-64 bits)",
		Paper: "an 8-bit mask captures most of the benefit",
		Run: func(c *Context) error {
			widths := []int{1, 2, 4, 8, 16, 32, 64}
			t := metrics.NewTable("mask bits", "twig % of ideal")
			for _, w := range widths {
				var tws []float64
				for _, app := range c.SweepApps() {
					base, err := c.Scheme(app, 0, "baseline")
					if err != nil {
						return err
					}
					ideal, err := c.Scheme(app, 0, "ideal")
					if err != nil {
						return err
					}
					tw, err := c.memoRun(fmt.Sprintf("mask%d/%s", w, app), c.art(app, 0), func(a *core.Artifacts) (*r, error) {
						optCfg := c.Opts.Opt
						optCfg.CoalesceMaskBits = w
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
					tws = append(tws, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), tw.IPC()), idealSp))
				}
				t.Row(w, metrics.Mean(tws))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
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
					base, err := c.memoRun(fmt.Sprintf("ftq%d-base/%s", d, app), c.art(app, 0), func(a *core.Artifacts) (*r, error) {
						return a.RunScheme("baseline", 0, opts)
					})
					if err != nil {
						return err
					}
					ideal, err := c.memoRun(fmt.Sprintf("ftq%d-ideal/%s", d, app), c.art(app, 0), func(a *core.Artifacts) (*r, error) {
						return a.RunScheme("ideal", 0, opts)
					})
					if err != nil {
						return err
					}
					tw, err := c.memoRun(fmt.Sprintf("ftq%d-twig/%s", d, app), c.art(app, 0), func(a *core.Artifacts) (*r, error) {
						return a.RunScheme("twig", 0, opts)
					})
					if err != nil {
						return err
					}
					idealSp := metrics.Speedup(base.IPC(), ideal.IPC())
					tws = append(tws, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), tw.IPC()), idealSp))
				}
				t.Row(d, metrics.Mean(tws))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})
}
