package experiments

import (
	"fmt"

	"twig/internal/core"
	"twig/internal/metrics"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
	"twig/internal/twigopt"
)

// Extension experiments go beyond the paper's own evaluation: the two
// additional related-work prefetchers it discusses qualitatively
// (Boomerang, two-level bulk preload) and the §5 claim that Twig is
// independent of the underlying BTB organization (validated on a
// BTB-X/PDede-style compressed BTB).
func init() {
	register(Experiment{
		ID:    "ext-priorwork",
		Title: "Extension: Phantom-BTB, Boomerang and two-level bulk preload vs Twig",
		Paper: "§5 discusses all three qualitatively: PBTB pays L2 latency and metadata; Boomerang's coverage collapses when BTB misses are frequent; bulk preload only exploits spatial locality",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "phantom sp%", "boomerang sp%", "bulk-preload sp%", "shotgun sp%", "twig sp%", "phantom cov%", "boomerang cov%", "bulk cov%", "twig cov%")
			for _, app := range c.SweepApps() {
				base, err := c.Scheme(app, 0, "baseline")
				if err != nil {
					return err
				}
				tw, err := c.Scheme(app, 0, "twig")
				if err != nil {
					return err
				}
				sh, err := c.Scheme(app, 0, "shotgun")
				if err != nil {
					return err
				}
				boom, err := c.memoRun(fmt.Sprintf("boomerang/%s", app), c.art(app, 0), func(a *core.Artifacts) (*pipeline.Result, error) {
					return a.RunProgram(a.Program, 0, c.Opts, prefetcher.NewBoomerang(c.Opts.BTB))
				})
				if err != nil {
					return err
				}
				bulk, err := c.memoRun(fmt.Sprintf("bulk/%s", app), c.art(app, 0), func(a *core.Artifacts) (*pipeline.Result, error) {
					return a.RunProgram(a.Program, 0, c.Opts, prefetcher.NewBulkPreload(prefetcher.DefaultBulkPreloadConfig()))
				})
				if err != nil {
					return err
				}
				phantom, err := c.memoRun(fmt.Sprintf("phantom/%s", app), c.art(app, 0), func(a *core.Artifacts) (*pipeline.Result, error) {
					return a.RunProgram(a.Program, 0, c.Opts, prefetcher.NewPhantom(prefetcher.DefaultPhantomConfig()))
				})
				if err != nil {
					return err
				}
				bm := base.BTB.DirectMisses()
				t.Row(string(app),
					metrics.Speedup(base.IPC(), phantom.IPC()),
					metrics.Speedup(base.IPC(), boom.IPC()),
					metrics.Speedup(base.IPC(), bulk.IPC()),
					metrics.Speedup(base.IPC(), sh.IPC()),
					metrics.Speedup(base.IPC(), tw.IPC()),
					metrics.Coverage(bm, phantom.BTB.DirectMisses()),
					metrics.Coverage(bm, boom.BTB.DirectMisses()),
					metrics.Coverage(bm, bulk.BTB.DirectMisses()),
					metrics.Coverage(bm, tw.BTB.DirectMisses()))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "ext-layout",
		Title: "Extension: layout PGO (hot-function reordering) alone, Twig alone, and both",
		Paper: "§5: layout techniques 'are only able to eliminate a subset of all I-cache misses' — they do not touch BTB misses, so Twig composes with them",
		Run: func(c *Context) error {
			t := metrics.NewTable("app", "layout sp%", "twig sp%", "layout+twig sp%", "layout icMPKI", "base icMPKI")
			for _, app := range c.SweepApps() {
				base, err := c.Scheme(app, 0, "baseline")
				if err != nil {
					return err
				}
				tw, err := c.Scheme(app, 0, "twig")
				if err != nil {
					return err
				}
				layout, err := c.memoRun(fmt.Sprintf("layout/%s", app), c.art(app, 0), func(a *core.Artifacts) (*pipeline.Result, error) {
					reordered, err := a.Program.ReorderFunctions(a.Program.HotFunctionOrder(a.Profile.BlockExecs))
					if err != nil {
						return nil, err
					}
					return a.RunProgram(reordered, 0, c.Opts, prefetcher.NewBaseline(c.Opts.BTB, 0, false))
				})
				if err != nil {
					return err
				}
				// Keyed apart from results cached before Analyze found
				// site blocks by ID on a reordered binary.
				both, err := c.memoRun(fmt.Sprintf("layout+twig/%s", app), c.art(app, 0), func(a *core.Artifacts) (*pipeline.Result, error) {
					reordered, err := a.Program.ReorderFunctions(a.Program.HotFunctionOrder(a.Profile.BlockExecs))
					if err != nil {
						return nil, err
					}
					an, err := twigopt.Analyze(reordered, a.Profile, c.Opts.Opt)
					if err != nil {
						return nil, err
					}
					prog, err := reordered.Inject(an.Plan)
					if err != nil {
						return nil, err
					}
					return a.RunProgram(prog, 0, c.Opts, prefetcher.NewBaseline(c.Opts.BTB, c.Opts.PrefetchBuffer, false))
				})
				if err != nil {
					return err
				}
				icMPKI := func(r *pipeline.Result) float64 {
					return float64(r.ICacheMisses) / float64(r.Original) * 1000
				}
				t.Row(string(app),
					metrics.Speedup(base.IPC(), layout.IPC()),
					metrics.Speedup(base.IPC(), tw.IPC()),
					metrics.Speedup(base.IPC(), both.IPC()),
					icMPKI(layout), icMPKI(base))
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})

	register(Experiment{
		ID:    "ext-compressed",
		Title: "Extension: Twig on a BTB-X/PDede-style compressed BTB (equal storage budget)",
		Paper: "§5 claims Twig 'should be just as effective' on compressed BTB organizations",
		Run: func(c *Context) error {
			t := metrics.NewTable("app",
				"conv MPKI", "compressed MPKI",
				"twig-on-conv sp%", "twig-on-compressed sp%", "effective entries")
			for _, app := range c.SweepApps() {
				base, err := c.Scheme(app, 0, "baseline")
				if err != nil {
					return err
				}
				tw, err := c.Scheme(app, 0, "twig")
				if err != nil {
					return err
				}
				ccfg := prefetcher.DefaultCompressedConfig()
				compBase, err := c.memoRun(fmt.Sprintf("comp-base/%s", app), c.art(app, 0), func(a *core.Artifacts) (*pipeline.Result, error) {
					return a.RunProgram(a.Program, 0, c.Opts, prefetcher.NewCompressed(ccfg, 0))
				})
				if err != nil {
					return err
				}
				compTwig, err := c.memoRun(fmt.Sprintf("comp-twig/%s", app), c.art(app, 0), func(a *core.Artifacts) (*pipeline.Result, error) {
					return a.RunProgram(a.Optimized, 0, c.Opts, prefetcher.NewCompressed(ccfg, c.Opts.PrefetchBuffer))
				})
				if err != nil {
					return err
				}
				t.Row(string(app),
					base.MPKI(), compBase.MPKI(),
					metrics.Speedup(base.IPC(), tw.IPC()),
					metrics.Speedup(compBase.IPC(), compTwig.IPC()),
					prefetcher.NewCompressed(ccfg, 0).TotalEntries())
			}
			_, err := fmt.Fprint(c.Out, t.String())
			return err
		},
	})
}
