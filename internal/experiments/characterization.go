package experiments

import (
	"fmt"

	"twig/internal/btb"
	"twig/internal/core"
	"twig/internal/exec"
	"twig/internal/isa"
	"twig/internal/metrics"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
	"twig/internal/runner"
	"twig/internal/streams"
	"twig/internal/workload"
)

// idealICache returns the cached ideal-I-cache run (baseline BTB), on
// the context's artifacts.
func (c *Context) idealICache(app workload.App, input int) (*pipeline.Result, error) {
	opts := c.Opts
	opts.Pipeline.IdealICache = true
	return c.schemeUnder(app, input, opts, runner.Training{Opts: c.Opts}, "baseline")
}

// threeC is the cached payload of a 3C-classified baseline run.
type threeC struct {
	Compulsory, Capacity, Conflict int64
}

// Total returns the classified miss count.
func (t threeC) Total() int64 { return t.Compulsory + t.Capacity + t.Conflict }

// classifiedBaseline runs the baseline with the 3C classifier attached
// (a run whose payload is the classification, not the Result) and
// returns the miss-class counts, memoized per BTB geometry.
func (c *Context) classifiedBaseline(app workload.App, cfg btb.Config) (threeC, error) {
	return memoDerived(c, fmt.Sprintf("3c/%s/%dx%d", app, cfg.Entries, cfg.Ways), c.art(app, 0), func(a *core.Artifacts) (threeC, error) {
		scheme := prefetcher.NewBaseline(cfg, 0, true)
		if _, err := a.RunProgram(a.Program, 0, c.Opts, scheme); err != nil {
			return threeC{}, err
		}
		tc := scheme.ThreeC()
		return threeC{tc.Compulsory, tc.Capacity, tc.Conflict}, nil
	})
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Top-Down level-1 pipeline-slot breakdown",
		Paper: "data center applications waste 24%-78% of pipeline slots on frontend stalls",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "retiring %", "frontend %", "bad-spec %", "backend %")
			for _, app := range c.Apps {
				r, err := c.Scheme(app, 0, "baseline")
				if err != nil {
					return err
				}
				td := r.TopDown(c.Opts.Pipeline.Width, c.Opts.Pipeline.ExecResteer)
				t.Row(string(app), td.Retiring*100, td.FrontendBound*100,
					td.BadSpeculation*100, td.BackendBound*100)
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig2",
		Title: "Limit study: ideal I-cache vs ideal BTB speedup over FDIP",
		Paper: "ideal I-cache +24% avg; ideal BTB +31% avg (BTB > I-cache)",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "ideal I-cache %", "ideal BTB %")
			var ics, btbs []float64
			for _, app := range c.Apps {
				base, err := c.Scheme(app, 0, "baseline")
				if err != nil {
					return err
				}
				ic, err := c.idealICache(app, 0)
				if err != nil {
					return err
				}
				ib, err := c.Scheme(app, 0, "ideal")
				if err != nil {
					return err
				}
				sic := metrics.Speedup(base.IPC(), ic.IPC())
				sib := metrics.Speedup(base.IPC(), ib.IPC())
				ics = append(ics, sic)
				btbs = append(btbs, sib)
				t.Row(string(app), sic, sib)
			}
			t.Row("average", metrics.Mean(ics), metrics.Mean(btbs))
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig3",
		Title: "BTB MPKI with the 8K-entry baseline BTB (direct branches)",
		Paper: "MPKI 8-121, average 29.7",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "BTB MPKI")
			var all []float64
			for _, app := range c.Apps {
				r, err := c.Scheme(app, 0, "baseline")
				if err != nil {
					return err
				}
				all = append(all, r.MPKI())
				t.Row(string(app), r.MPKI())
			}
			t.Row("average", metrics.Mean(all))
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig4",
		Title: "3C classification of BTB misses",
		Paper: "capacity ~70% and conflict ~24% dominate; few compulsory",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "compulsory %", "capacity %", "conflict %")
			for _, app := range c.Apps {
				tc, err := c.classifiedBaseline(app, c.Opts.BTB)
				if err != nil {
					return err
				}
				tot := float64(tc.Total())
				if tot == 0 {
					tot = 1
				}
				t.Row(string(app),
					float64(tc.Compulsory)/tot*100,
					float64(tc.Capacity)/tot*100,
					float64(tc.Conflict)/tot*100)
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig5",
		Title: "Capacity-miss share vs BTB size (2K-64K entries)",
		Paper: "capacity misses only vanish at >=32K-64K entries",
		Run: func(c *Context) error {
			sizes := []int{2048, 4096, 8192, 16384, 32768, 65536}
			header := []string{"app"}
			for _, s := range sizes {
				header = append(header, fmt.Sprintf("%dK cap%%", s/1024))
			}
			t := metrics.NewTable(header...)
			for _, app := range c.SweepApps() {
				row := []any{string(app)}
				for _, s := range sizes {
					tc, err := c.classifiedBaseline(app, btb.Config{Entries: s, Ways: c.Opts.BTB.Ways})
					if err != nil {
						return err
					}
					tot := float64(tc.Total())
					if tot == 0 {
						tot = 1
					}
					row = append(row, float64(tc.Capacity)/tot*100)
				}
				t.Row(row...)
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig6",
		Title: "Conflict-miss share vs BTB associativity (4-128 ways)",
		Paper: "conflict misses persist even at 128 ways",
		Run: func(c *Context) error {
			ways := []int{4, 8, 16, 32, 64, 128}
			header := []string{"app"}
			for _, w := range ways {
				header = append(header, fmt.Sprintf("%dw conf%%", w))
			}
			t := metrics.NewTable(header...)
			for _, app := range c.SweepApps() {
				row := []any{string(app)}
				for _, w := range ways {
					tc, err := c.classifiedBaseline(app, btb.Config{Entries: c.Opts.BTB.Entries, Ways: w})
					if err != nil {
						return err
					}
					tot := float64(tc.Total())
					if tot == 0 {
						tot = 1
					}
					row = append(row, float64(tc.Conflict)/tot*100)
				}
				t.Row(row...)
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig7",
		Title: "BTB accesses by branch type",
		Paper: "conditional branches dominate accesses",
		Run:   func(c *Context) error { return c.kindBreakdown(false) },
	})

	register(Experiment{
		ID:    "fig8",
		Title: "BTB misses by branch type",
		Paper: "uncond direct + calls are 20.75% of branches but 37.5% of misses",
		Run:   func(c *Context) error { return c.kindBreakdown(true) },
	})

	register(Experiment{
		ID:    "fig9",
		Title: "Shotgun and Confluence speedup over FDIP",
		Paper: "both recover only a small fraction of the ideal-BTB speedup",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "confluence %", "shotgun %", "ideal BTB %")
			var cs, ss []float64
			for _, app := range c.Apps {
				base, err := c.Scheme(app, 0, "baseline")
				if err != nil {
					return err
				}
				sh, err := c.Scheme(app, 0, "shotgun")
				if err != nil {
					return err
				}
				cf, err := c.Scheme(app, 0, "confluence")
				if err != nil {
					return err
				}
				ib, err := c.Scheme(app, 0, "ideal")
				if err != nil {
					return err
				}
				sc := metrics.Speedup(base.IPC(), cf.IPC())
				sg := metrics.Speedup(base.IPC(), sh.IPC())
				cs = append(cs, sc)
				ss = append(ss, sg)
				t.Row(string(app), sc, sg, metrics.Speedup(base.IPC(), ib.IPC()))
			}
			t.Row("average", metrics.Mean(cs), metrics.Mean(ss), "")
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig10",
		Title: "Temporal-stream classification of BTB misses",
		Paper: "recurring ~52%, new ~36%, non-repetitive ~12% on average",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "recurring %", "new %", "non-repetitive %")
			var rs, ns, os []float64
			type fractions struct{ R, N, O float64 }
			for _, app := range c.Apps {
				fr, err := memoDerived(c, fmt.Sprintf("streams/%s", app), c.art(app, 0), func(a *core.Artifacts) (fractions, error) {
					rec := streams.NewRecorder()
					opts := c.Opts
					opts.Pipeline.Sink = rec
					cfg := opts.Pipeline
					cfg.BackendCPI = a.Params.BackendCPI
					cfg.CondMispredictRate = a.Params.CondMispredictRate
					cfg.Scheme = prefetcher.NewBaseline(opts.BTB, 0, false)
					if _, err := pipeline.Run(a.Program, a.Input(0), cfg); err != nil {
						return fractions{}, err
					}
					cl := streams.Classify(rec.Misses())
					r, n, o := cl.Fractions()
					return fractions{r, n, o}, nil
				})
				if err != nil {
					return err
				}
				rs = append(rs, fr.R*100)
				ns = append(ns, fr.N*100)
				os = append(os, fr.O*100)
				t.Row(string(app), fr.R*100, fr.N*100, fr.O*100)
			}
			t.Row("average", metrics.Mean(rs), metrics.Mean(ns), metrics.Mean(os))
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig11",
		Title: "Dynamic working set of unconditional branches and calls vs Shotgun's 5120-entry U-BTB",
		Paper: "JVM apps and verilator exceed the U-BTB; the PHP apps fit",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "uncond working set", "U-BTB entries", "fits")
			for _, app := range c.Apps {
				ws, err := memoDerived(c, fmt.Sprintf("uncond-ws/%s", app), c.art(app, 0), func(a *core.Artifacts) (int, error) {
					return uncondWorkingSet(a, c.Opts.Pipeline.MaxInstructions)
				})
				if err != nil {
					return err
				}
				u := prefetcher.DefaultShotgunConfig().UEntries
				t.Row(string(app), ws, u, ws <= u)
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "fig12",
		Title: "Conditional branches outside Shotgun's spatial range (range sweep)",
		Paper: "26-45% fall outside 8 lines. Our binaries are ~8x denser than the real ones (DESIGN.md), so the paper's 8-line window corresponds to ~1 line here; the sweep shows where the violation rate lands at each width",
		Run: func(c *Context) error {
			type rangeCounts struct {
				Resolved, Outside int64
			}
			ranges := []int{1, 2, 4, 8}
			header := []string{"app"}
			for _, rg := range ranges {
				header = append(header, fmt.Sprintf("outside %dL %%", rg))
			}
			t := metrics.NewTable(header...)
			for _, app := range c.Apps {
				row := []any{string(app)}
				for _, rg := range ranges {
					rg := rg
					counts, err := memoDerived(c, fmt.Sprintf("shotgun-range/%s/%d", app, rg), c.art(app, 0), func(a *core.Artifacts) (rangeCounts, error) {
						scfg := prefetcher.DefaultShotgunConfig()
						scfg.FootprintLines = rg
						scheme := prefetcher.NewShotgun(scfg)
						opts := c.Opts
						opts.Pipeline.RASEntries = 1536
						if _, err := a.RunProgram(a.Program, 0, opts, scheme); err != nil {
							return rangeCounts{}, err
						}
						return rangeCounts{Resolved: scheme.CondResolved, Outside: scheme.CondOutsideRange}, nil
					})
					if err != nil {
						return err
					}
					pct := 0.0
					if counts.Resolved > 0 {
						pct = float64(counts.Outside) / float64(counts.Resolved) * 100
					}
					row = append(row, pct)
				}
				t.Row(row...)
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "tab1",
		Title: "Simulator parameters",
		Paper: "3.2GHz 6-wide OOO, 24-entry FTQ, 224 ROB, 8K 4-way BTB, 32 RAS, 4K 4-way IBTB, 32KB L1i, 1MB L2, 10MB L3",
		Run: func(c *Context) error {
			p := c.Opts.Pipeline
			t := metrics.NewTable("parameter", "value")
			t.Row("width", fmt.Sprintf("%.0f-wide OOO", p.Width))
			t.Row("FTQ", fmt.Sprintf("%d entries", p.FTQSize))
			t.Row("ROB", fmt.Sprintf("%d entries", p.ROBSize))
			t.Row("BTB", fmt.Sprintf("%d-entry %d-way (~%dKB)", c.Opts.BTB.Entries, c.Opts.BTB.Ways, c.Opts.BTB.StorageBytes()>>10))
			t.Row("RAS", fmt.Sprintf("%d entries", p.RASEntries))
			t.Row("IBTB", fmt.Sprintf("%d-entry %d-way", p.IBTBEntries, p.IBTBWays))
			t.Row("L1i", fmt.Sprintf("%dKB %d-way", p.Hierarchy.L1.SizeBytes>>10, p.Hierarchy.L1.Ways))
			t.Row("L2", fmt.Sprintf("%dMB %d-way, %.0f cycles", p.Hierarchy.L2.SizeBytes>>20, p.Hierarchy.L2.Ways, p.Hierarchy.L2Lat))
			t.Row("L3", fmt.Sprintf("%dMB %d-way, %.0f cycles", p.Hierarchy.L3.SizeBytes>>20, p.Hierarchy.L3.Ways, p.Hierarchy.L3Lat))
			t.Row("decode resteer", fmt.Sprintf("%.0f cycles", p.DecodeResteer))
			t.Row("exec resteer", fmt.Sprintf("%.0f cycles", p.ExecResteer))
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})
}

// kindBreakdown renders Fig. 7 (accesses) or Fig. 8 (misses).
func (c *Context) kindBreakdown(misses bool) error {
	kinds := []isa.Kind{
		isa.KindCondBranch, isa.KindJump, isa.KindCall,
		isa.KindReturn, isa.KindIndirectJump, isa.KindIndirectCall,
	}
	header := []string{"app"}
	for _, k := range kinds {
		header = append(header, k.String()+" %")
	}
	t := metrics.NewTable(header...)
	for _, app := range c.Apps {
		r, err := c.Scheme(app, 0, "baseline")
		if err != nil {
			return err
		}
		var counts [isa.NumKinds]int64
		if misses {
			counts = r.BTB.Misses
		} else {
			counts = r.BTB.Accesses
		}
		var total int64
		for _, k := range kinds {
			total += counts[k]
		}
		if total == 0 {
			total = 1
		}
		row := []any{string(app)}
		for _, k := range kinds {
			row = append(row, float64(counts[k])/float64(total)*100)
		}
		t.Row(row...)
	}
	_, err := fmt.Fprint(c.Out, t.String())
	return err
}

// uncondWorkingSet counts distinct unconditional direct branches and
// calls executed within the evaluation window (the Fig. 11 metric).
func uncondWorkingSet(a *core.Artifacts, n int64) (int, error) {
	ex, err := exec.New(a.Program, a.Input(0))
	if err != nil {
		return 0, err
	}
	seen := make(map[int32]struct{})
	var st exec.Step
	for i := int64(0); i < n; i++ {
		ex.Next(&st)
		if a.Program.Instrs[st.Idx].Kind.IsUnconditionalDirect() {
			seen[st.Idx] = struct{}{}
		}
	}
	return len(seen), nil
}

// SweepApps returns the subset of applications used for the
// many-configuration sweeps. The paper likewise shows three
// representative applications for Figs. 5-6 ("behavior is similar
// across all applications"); the selection spans the MPKI extremes.
func (c *Context) SweepApps() []workload.App {
	if len(c.Apps) <= 3 {
		return c.Apps
	}
	want := map[workload.App]bool{workload.Cassandra: true, workload.Verilator: true, workload.WordPress: true}
	var out []workload.App
	for _, a := range c.Apps {
		if want[a] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		out = c.Apps[:3]
	}
	return out
}
