package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"twig/internal/core"
	"twig/internal/pipeline"
	"twig/internal/program"
	"twig/internal/twigopt"
)

// maskWidths is fig27's coalesce-mask grid.
var maskWidths = []int{1, 2, 4, 8, 16, 32, 64}

// sweepApps are the trio's mid- and small-tier apps. The large tier is
// left out to keep a pass near 30 s.
var sweepApps = trio[1:]

// setupRepeats is how often a timed sweep run builds and profiles, to
// report the median set-up; the schemes and suite-warm set-ups take
// over ten seconds each and run once.
const setupRepeats = 5

// sweepPoint is one grid point's outcome.
type sweepPoint struct {
	Key string
	// CPU is the twig run's thread CPU time.
	CPU time.Duration
	Res *pipeline.Result
}

func runSweep(cfg runConfig) (*report, error) {
	opts := operatingPoint()
	pl := planFor(cfg.Seed)
	book, err := loadDigests()
	if err != nil {
		return nil, err
	}
	rep := newReport("sweep", cfg.Seed, cfg.Trace)
	rep.note("apps %v (mid and small tiers), training input %d, mask widths %v", sweepApps, pl.Train, maskWidths)

	var tr *tracer
	repeats := setupRepeats
	if cfg.Trace {
		tr = newTracer(cfg.runID("sweep"))
		repeats = 1
	}
	g := newGauge()
	var setups []time.Duration
	var setupPace pace
	var apps []*trained
	for i := 0; i < repeats; i++ {
		apps = apps[:0]
		m := &meter{g: g}
		if !cfg.Trace {
			m.after = setupSamples
		}
		for _, app := range sweepApps {
			var t *trained
			var err error
			m.time(func() { t, err = buildAndProfile(app, pl.Train, opts, tr) })
			if err != nil {
				return nil, err
			}
			apps = append(apps, t)
		}
		setups = append(setups, m.scaled())
		setupPace = setupPace.merge(m.pace)
	}

	// pass runs the grid once, timing on m: analysis and injection per
	// point, then the twig scheme on the optimized binary.
	pass := func(tr *tracer, m *meter, check func(key string, res *pipeline.Result) error) []sweepPoint {
		var pts []sweepPoint
		for _, w := range maskWidths {
			for _, t := range apps {
				key := sweepKey(t.App, w, t.Train)
				optCfg := opts.Opt
				optCfg.CoalesceMaskBits = w
				pt := tr.begin("point:"+key, -1)
				var prog *program.Program
				var an *twigopt.Analysis
				var err error
				m.time(func() { prog, an, err = t.optimize(optCfg, tr, pt) })
				if err != nil {
					tr.end(pt)
					rep.op(fmt.Errorf("%s: %w", key, err))
					continue
				}
				sp := tr.begin("core.RunOptimized", pt)
				var res *pipeline.Result
				cpu := m.time(func() { res, err = t.artifacts(prog, an).RunOptimized(prog, t.Train, opts) })
				tr.end(sp)
				tr.end(pt)
				if err == nil {
					err = check(key, res)
				} else {
					err = fmt.Errorf("%s: %w", key, err)
				}
				rep.op(err)
				if err == nil {
					pts = append(pts, sweepPoint{Key: key, CPU: cpu, Res: res})
				}
			}
		}
		return pts
	}

	if !cfg.Trace {
		var heap retainedPeak
		heap.measure()
		var passes, runs []time.Duration
		var all pace
		start := time.Now()
		for len(passes) == 0 || time.Since(start).Seconds() < cfg.Seconds {
			m := &meter{g: g, after: 1}
			for _, p := range pass(nil, m, book.check) {
				runs = append(runs, m.pace.scale(p.CPU))
			}
			passes = append(passes, m.scaled())
			all = all.merge(m.pace)
			heap.measure()
		}
		rep.note("timings are %s, scaled to the reference speed by the gauge (gauge.go)", cpuClockKind)
		rep.note("set-up: %s; measured phase: %s", setupPace, all)
		rep.set("setup_s", median(setups).Seconds(), len(setups), "median of repeated build and profile")
		rep.set("cpu_s", median(passes).Seconds(), len(passes), "median pass over the grid")
		var cpu time.Duration
		for _, d := range runs {
			cpu += d
		}
		instr := int64(len(runs)) * simulated(opts)
		rep.set("sim_kips", float64(instr)/cpu.Seconds()/1e3, len(runs),
			fmt.Sprintf("twig runs: %d instructions over %.3f scaled CPU s", instr, cpu.Seconds()))
		rep.setSimTimes(runs, "twig runs at the grid points")
		rep.set("sims_executed", float64(len(runs)/len(passes)), len(passes), "twig runs per pass")
		rep.set("heap_peak_mb", heap.mb, len(passes)+1, "live after a full GC, after set-up and after each pass")
		return rep, nil
	}

	t0 := time.Now()
	plain := pass(nil, &meter{}, book.check)
	plainWall := time.Since(t0)
	ref := map[string]*pipeline.Result{}
	for _, p := range plain {
		ref[p.Key] = p.Res
	}
	t0 = time.Now()
	pass(tr, &meter{}, func(key string, res *pipeline.Result) error {
		want, ok := ref[key]
		if !ok {
			return fmt.Errorf("%s: the untraced pass has no run to compare", key)
		}
		if got, w := digest(res), digest(want); got != w {
			return fmt.Errorf("%s: digest %s, untraced pass %s", key, got, w)
		}
		return nil
	})
	tracedWall := time.Since(t0)

	build, nb := tr.total("workload.Build")
	rep.set("workload.build_ms", ms(build), nb, "set-up")
	collect, nc := tr.total("core.CollectProfile")
	var profInstr int64
	var samples int
	for _, t := range apps {
		profInstr += t.Prof.Instructions
		samples += len(t.Prof.Samples)
	}
	rep.set("profile.collect_ms", ms(collect), nc, "set-up")
	rep.set("profile.ns_per_instr", float64(collect)/float64(profInstr), nc,
		fmt.Sprintf("%.1f ms over %d profiled instructions", ms(collect), profInstr))
	rep.set("profile.samples", float64(samples), nc, "BTB-miss samples of the two training profiles")
	analyze, na := tr.total("twigopt.Analyze")
	rep.set("twigopt.analyze_ms", ms(analyze), na, fmt.Sprintf("traced pass %.3f s", tracedWall.Seconds()))
	rep.set("twigopt.calls", float64(na), na, "")
	analyzed := samples * len(maskWidths)
	rep.set("twigopt.us_per_sample", float64(analyze)/float64(time.Microsecond)/float64(analyzed), analyzed,
		fmt.Sprintf("%.1f ms over %d samples analyzed", ms(analyze), analyzed))
	inject, ni := tr.total("program.Inject")
	rep.set("program.inject_ms", ms(inject), ni, "")
	run, nr := tr.total("core.RunOptimized")
	instr := int64(nr) * simulated(opts)
	rep.set("pipeline.ns_per_instr.twig", float64(run)/float64(instr), nr,
		fmt.Sprintf("%.1f ms over %d instructions of twig runs", ms(run), instr))
	rep.set("perfbench.trace_overhead_frac", float64(tracedWall)/float64(plainWall)-1, 1,
		fmt.Sprintf("traced pass %.3f s vs untraced pass %.3f s", tracedWall.Seconds(), plainWall.Seconds()))
	for _, name := range core.SchemeNames {
		if name != "twig" {
			rep.unmeasured("pipeline.ns_per_instr."+name, "bypassed: the sweep runs only the twig scheme")
		}
	}
	const noTape = "not recorded on sweep: the schemes workload's tapes measure it"
	for _, p := range []string{"exec.", "prefetcher.", "cache.", "pipeline.self_", "telemetry."} {
		rep.unmeasuredPrefix(p, noTape)
	}
	rep.unmeasured("stepcast.grouped_speedup", "bypassed: the sweep runs one scheme per point")
	rep.unmeasuredPrefix("runner.", "bypassed: the sweep calls twigopt and core directly, without the runner")
	rep.unmeasured("experiments.render_ms", "bypassed: the sweep renders no figure")
	return rep, tr.write(cfg.spanPath("sweep"))
}

// writeDigestFile computes the digest of every cell any seed can
// select and writes them, sorted by key, to path.
func writeDigestFile(path string) error {
	opts := operatingPoint()
	book := digestBook{}
	for _, app := range trio {
		t, err := buildAndProfile(app, 0, opts, nil)
		if err != nil {
			return err
		}
		opt, an, err := t.optimize(opts.Opt, nil, -1)
		if err != nil {
			return err
		}
		a := t.artifacts(opt, an)
		for in := 0; in < evalPool; in++ {
			for _, name := range core.SchemeNames {
				res, err := a.RunScheme(name, in, opts)
				if err != nil {
					return err
				}
				book[schemeKey(app, name, in)] = digest(res)
			}
		}
	}
	for train := 0; train < trainPool; train++ {
		for _, app := range sweepApps {
			t, err := buildAndProfile(app, train, opts, nil)
			if err != nil {
				return err
			}
			for _, w := range maskWidths {
				optCfg := opts.Opt
				optCfg.CoalesceMaskBits = w
				prog, an, err := t.optimize(optCfg, nil, -1)
				if err != nil {
					return err
				}
				res, err := t.artifacts(prog, an).RunOptimized(prog, train, opts)
				if err != nil {
					return err
				}
				book[sweepKey(app, w, train)] = digest(res)
			}
		}
	}
	data, err := json.MarshalIndent(book, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
