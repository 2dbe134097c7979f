package experiments

import (
	"fmt"

	"twig/internal/btb"
	"twig/internal/metrics"
	"twig/internal/pipeline"
	"twig/internal/runner"
	"twig/internal/workload"
)

// r abbreviates the ubiquitous run-result type in memoized closures.
type r = pipeline.Result

func init() {
	register(Experiment{
		ID:    "fig16",
		Title: "Speedup over the FDIP baseline: Twig vs ideal BTB, 32K BTB, Shotgun, Confluence, Micro BTB hierarchy, shadow branches",
		Paper: "Twig +20.86% avg (2-145%); ideal +31%; Shotgun ~+1%; Twig beats even a 32K-entry BTB on average",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "ideal %", "32K BTB %", "confluence %", "shotgun %", "hierarchy %", "shadow %", "twig %")
			cols := make([][]float64, 7)
			for _, app := range c.Apps {
				runs, err := c.Schemes(app, 0, "baseline", "ideal", "twig", "shotgun", "confluence", "hierarchy", "shadow")
				if err != nil {
					return err
				}
				base, ideal := runs["baseline"], runs["ideal"]
				tw, sh, cf := runs["twig"], runs["shotgun"], runs["confluence"]
				hi, sb := runs["hierarchy"], runs["shadow"]
				big32, err := c.bigBTB(app, 32768)
				if err != nil {
					return err
				}
				vals := []float64{
					metrics.Speedup(base.IPC(), ideal.IPC()),
					metrics.Speedup(base.IPC(), big32.IPC()),
					metrics.Speedup(base.IPC(), cf.IPC()),
					metrics.Speedup(base.IPC(), sh.IPC()),
					metrics.Speedup(base.IPC(), hi.IPC()),
					metrics.Speedup(base.IPC(), sb.IPC()),
					metrics.Speedup(base.IPC(), tw.IPC()),
				}
				for i, v := range vals {
					cols[i] = append(cols[i], v)
				}
				t.Row(string(app), vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6])
			}
			t.Row("average",
				metrics.Mean(cols[0]), metrics.Mean(cols[1]), metrics.Mean(cols[2]),
				metrics.Mean(cols[3]), metrics.Mean(cols[4]), metrics.Mean(cols[5]),
				metrics.Mean(cols[6]))
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig17",
		Title: "BTB miss coverage of Twig, Confluence, Shotgun, the Micro BTB hierarchy, and shadow branches",
		Paper: "Twig covers 65.4% avg (up to 95.8%), 57.4% more than Shotgun",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "confluence %", "shotgun %", "hierarchy %", "shadow %", "twig %")
			var cs, ss, hs, bs, ts []float64
			for _, app := range c.Apps {
				runs, err := c.Schemes(app, 0, "baseline", "twig", "shotgun", "confluence", "hierarchy", "shadow")
				if err != nil {
					return err
				}
				base, tw, sh, cf := runs["baseline"], runs["twig"], runs["shotgun"], runs["confluence"]
				hi, sb := runs["hierarchy"], runs["shadow"]
				bm := base.BTB.DirectMisses()
				vc := metrics.Coverage(bm, cf.BTB.DirectMisses())
				vs := metrics.Coverage(bm, sh.BTB.DirectMisses())
				vh := metrics.Coverage(bm, hi.BTB.DirectMisses())
				vb := metrics.Coverage(bm, sb.BTB.DirectMisses())
				vt := metrics.Coverage(bm, tw.BTB.DirectMisses())
				cs, ss, hs, bs, ts = append(cs, vc), append(ss, vs), append(hs, vh), append(bs, vb), append(ts, vt)
				t.Row(string(app), vc, vs, vh, vb, vt)
			}
			t.Row("average", metrics.Mean(cs), metrics.Mean(ss), metrics.Mean(hs), metrics.Mean(bs), metrics.Mean(ts))
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig18",
		Title: "Contribution split: software BTB prefetching vs prefetch coalescing (% of ideal)",
		Paper: "software prefetching alone ~32.6% of ideal; coalescing adds ~15.7% more (total 48.3%)",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "sw-only % of ideal", "with coalescing % of ideal", "coalescing gain")
			var sws, fulls []float64
			for _, app := range c.Apps {
				base, err := c.Scheme(app, 0, "baseline")
				if err != nil {
					return err
				}
				ideal, err := c.Scheme(app, 0, "ideal")
				if err != nil {
					return err
				}
				full, err := c.Scheme(app, 0, "twig")
				if err != nil {
					return err
				}
				opts := c.Opts
				opts.Opt.DisableCoalescing = true
				swOnly, err := c.schemeUnder(app, 0, opts, runner.Training{Opts: opts}, "twig")
				if err != nil {
					return err
				}
				idealSp := metrics.Speedup(base.IPC(), ideal.IPC())
				swPct := metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), swOnly.IPC()), idealSp)
				fullPct := metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), full.IPC()), idealSp)
				sws, fulls = append(sws, swPct), append(fulls, fullPct)
				t.Row(string(app), swPct, fullPct, fullPct-swPct)
			}
			t.Row("average", metrics.Mean(sws), metrics.Mean(fulls), metrics.Mean(fulls)-metrics.Mean(sws))
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig19",
		Title: "BTB prefetch accuracy of Twig, Confluence, Shotgun, and shadow branches",
		Paper: "Twig 31.3% average accuracy, ~12.3% higher than Shotgun",
		Run: func(c *Context) error {
			// The hierarchy is absent by design: it never prefetches, so
			// it has no accuracy to report (see SCHEMES.md).
			t := metrics.NewTable("app", "confluence %", "shotgun %", "shadow %", "twig %")
			var cs, ss, bs, ts []float64
			for _, app := range c.Apps {
				runs, err := c.Schemes(app, 0, "twig", "shotgun", "confluence", "shadow")
				if err != nil {
					return err
				}
				tw, sh, cf, sb := runs["twig"], runs["shotgun"], runs["confluence"], runs["shadow"]
				vc := cf.Prefetch.Accuracy() * 100
				vs := sh.Prefetch.Accuracy() * 100
				vb := sb.Prefetch.Accuracy() * 100
				vt := tw.Prefetch.Accuracy() * 100
				cs, ss, bs, ts = append(cs, vc), append(ss, vs), append(bs, vb), append(ts, vt)
				t.Row(string(app), vc, vs, vb, vt)
			}
			t.Row("average", metrics.Mean(cs), metrics.Mean(ss), metrics.Mean(bs), metrics.Mean(ts))
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig20",
		Title: "Cross-input generalization (% of ideal, inputs #1-#3, trained on #0) — includes Table 2",
		Paper: "training-input profiles achieve speedups comparable to same-input profiles; both far above Shotgun/Confluence",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "same-input avg", "same stddev", "train-#0 avg", "train stddev", "shotgun avg", "confluence avg", "hierarchy avg", "shadow avg")
			for _, app := range c.Apps {
				var same, cross, shot, conf, hier, shad []float64
				for input := 1; input <= 3; input++ {
					runs, err := c.Schemes(app, input, "baseline", "ideal", "twig", "shotgun", "confluence", "hierarchy", "shadow")
					if err != nil {
						return err
					}
					base, ideal := runs["baseline"], runs["ideal"]
					idealSp := metrics.Speedup(base.IPC(), ideal.IPC())

					// Twig trained on input #0, tested on this input.
					tw := runs["twig"]
					cross = append(cross, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), tw.IPC()), idealSp))

					// Twig trained and tested on the same input.
					twSame, err := c.schemeUnder(app, input, c.Opts, runner.Training{Input: input, Opts: c.Opts}, "twig")
					if err != nil {
						return err
					}
					same = append(same, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), twSame.IPC()), idealSp))

					sh, cf := runs["shotgun"], runs["confluence"]
					shot = append(shot, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), sh.IPC()), idealSp))
					conf = append(conf, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), cf.IPC()), idealSp))
					hi, sb := runs["hierarchy"], runs["shadow"]
					hier = append(hier, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), hi.IPC()), idealSp))
					shad = append(shad, metrics.PercentOfIdeal(metrics.Speedup(base.IPC(), sb.IPC()), idealSp))
				}
				t.Row(string(app),
					metrics.Mean(same), metrics.StdDev(same),
					metrics.Mean(cross), metrics.StdDev(cross),
					metrics.Mean(shot), metrics.Mean(conf),
					metrics.Mean(hier), metrics.Mean(shad))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "tab2",
		Title: "Twig's average % of ideal across inputs with standard deviations",
		Paper: "e.g. kafka 52.35/49.93, verilator 80.33/79.19 (tiny stddev), cassandra 49.31/45.93",
		Run: func(c *Context) error {
			// Table 2 is the numeric form of fig20's Twig columns.
			e, _ := ByID("fig20")
			return e.Run(c)
		},
	})

	register(Experiment{
		ID:    "fig21",
		Title: "Static instruction overhead of injected prefetches",
		Paper: "~6% average extra static instructions (scaled binaries here are denser; see EXPERIMENTS.md)",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "injected instrs", "static overhead %")
			var all []float64
			for _, app := range c.Apps {
				a, err := c.Artifacts(app, 0)
				if err != nil {
					return err
				}
				oh := float64(a.Optimized.InjectedInstrs()) / float64(a.Program.OriginalInstrs) * 100
				all = append(all, oh)
				t.Row(string(app), a.Optimized.InjectedInstrs(), oh)
			}
			t.Row("average", "", metrics.Mean(all))
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig22",
		Title: "Dynamic instruction overhead of injected prefetches",
		Paper: "~3% average extra dynamic instructions; verilator highest",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "dynamic overhead %")
			var all []float64
			for _, app := range c.Apps {
				tw, err := c.Scheme(app, 0, "twig")
				if err != nil {
					return err
				}
				v := tw.DynamicOverhead() * 100
				all = append(all, v)
				t.Row(string(app), v)
			}
			t.Row("average", metrics.Mean(all))
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "tab3",
		Title: "Instruction working-set size and added bytes",
		Paper: "working sets 1.75-13.56MB; added 0.05-1.34MB (2.9-9.9%)",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "text MB", "added MB", "overhead %")
			for _, app := range c.Apps {
				a, err := c.Artifacts(app, 0)
				if err != nil {
					return err
				}
				text := float64(a.Program.TextBytes) / 1e6
				added := float64(a.Optimized.InjectedBytes()) / 1e6
				t.Row(string(app), fmt.Sprintf("%.3f", text), fmt.Sprintf("%.3f", added), added/text*100)
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})
}

// bigBTB returns the cached baseline run with an entries-sized BTB
// (Fig. 16's 32K comparison point), on the context's artifacts.
func (c *Context) bigBTB(app workload.App, entries int) (*r, error) {
	opts := c.Opts
	opts.BTB = btb.Config{Entries: entries, Ways: c.Opts.BTB.Ways}
	return c.schemeUnder(app, 0, opts, runner.Training{Opts: c.Opts}, "baseline")
}
