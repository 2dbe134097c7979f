package main

import (
	"fmt"
	"io"
	"time"

	"twig/internal/check"
	"twig/internal/core"
	"twig/internal/exec"
	"twig/internal/pipeline"
	"twig/internal/program"
	"twig/internal/telemetry"
	"twig/internal/twigopt"
)

// schemesBench is the schemes workload: every scheme, by name through
// core's RunScheme, one run at a time on one goroutine, over the trio
// and the seed's evaluation inputs.
type schemesBench struct {
	cfg  runConfig
	opts core.Options
	plan plan
	book digestBook
	arts []*core.Artifacts
}

// cellRun is one single-scheme run of the matrix.
type cellRun struct {
	Key    string
	Scheme string
	Input  int
	// Host is the run's wall time, CPU its thread's CPU time.
	Host, CPU time.Duration
	Res       *pipeline.Result
}

func runSchemes(cfg runConfig) (*report, error) {
	b := &schemesBench{cfg: cfg, opts: operatingPoint(), plan: planFor(cfg.Seed)}
	var err error
	if b.book, err = loadDigests(); err != nil {
		return nil, err
	}
	rep := newReport("schemes", cfg.Seed, cfg.Trace)
	for _, app := range trio {
		rep.note("app %s (%s tier), training input 0", app, tierOf[app])
	}
	rep.note("evaluation inputs %v, %d schemes, window %d + %d warm-up", b.plan.Inputs,
		len(core.SchemeNames), b.opts.Pipeline.MaxInstructions, b.opts.Pipeline.Warmup)

	var tr *tracer
	if cfg.Trace {
		tr = newTracer(cfg.runID("schemes"))
	}
	g := newGauge()
	setupM := &meter{g: g}
	if !cfg.Trace {
		setupM.after = setupSamples
	}
	start := time.Now()
	if err := b.setup(tr, setupM); err != nil {
		return nil, err
	}
	setup := time.Since(start)

	if !cfg.Trace {
		var heap retainedPeak
		heap.measure()
		var passes []time.Duration
		var runs []cellRun
		var all pace
		measured := time.Now()
		for len(passes) == 0 || time.Since(measured).Seconds() < cfg.Seconds {
			m := &meter{g: g, after: 1}
			for _, r := range b.matrix(rep, m) {
				r.CPU = m.pace.scale(r.CPU)
				runs = append(runs, r)
			}
			passes = append(passes, m.scaled())
			all = all.merge(m.pace)
			heap.measure()
		}
		rep.note("timings are %s, scaled to the reference speed by the gauge (gauge.go)", cpuClockKind)
		rep.note("set-up: %.3f CPU s, %s; %.3f s of wall time", setupM.cpu.Seconds(), setupM.pace, setup.Seconds())
		rep.note("measured phase: %s", all)
		rep.set("setup_s", setupM.scaled().Seconds(), 1, "build, profile, analyze and inject the trio")
		rep.set("cpu_s", median(passes).Seconds(), len(passes), "median pass over the run matrix")
		var cpu time.Duration
		durs := make([]time.Duration, len(runs))
		for i, r := range runs {
			cpu += r.CPU
			durs[i] = r.CPU
		}
		instr := int64(len(runs)) * simulated(b.opts)
		rep.set("sim_kips", float64(instr)/cpu.Seconds()/1e3, len(runs),
			fmt.Sprintf("%d instructions over %.3f scaled CPU s of runs", instr, cpu.Seconds()))
		rep.setSimTimes(durs, "single-scheme runs")
		rep.set("sims_executed", float64(len(runs)/len(passes)), len(passes), "runs per pass")
		rep.set("heap_peak_mb", heap.mb, len(passes)+1, "live after a full GC, after set-up and after each pass")
		return rep, nil
	}
	return rep, b.traced(rep, tr, setup)
}

// setupSamples is how many gauge samples follow each timed set-up
// call; the calls take 0.1-8 s each.
const setupSamples = 5

// setup builds, profiles, analyzes and injects each app of the trio
// on training input 0, timing each call on m.
func (b *schemesBench) setup(tr *tracer, m *meter) error {
	for _, app := range trio {
		var t *trained
		var err error
		m.time(func() { t, err = buildAndProfile(app, 0, b.opts, tr) })
		if err != nil {
			return err
		}
		var opt *program.Program
		var an *twigopt.Analysis
		m.time(func() { opt, an, err = t.optimize(b.opts.Opt, tr, -1) })
		if err != nil {
			return err
		}
		b.arts = append(b.arts, t.artifacts(opt, an))
	}
	return nil
}

// matrix runs every app × input × scheme cell once through core,
// timing each run on m, checks each run's digest and each (app,
// input)'s cross-scheme laws, and returns the runs.
func (b *schemesBench) matrix(rep *report, m *meter) []cellRun {
	var out []cellRun
	for _, a := range b.arts {
		for _, in := range b.plan.Inputs {
			cells := make([]cellRun, 0, len(core.SchemeNames))
			for _, name := range core.SchemeNames {
				var res *pipeline.Result
				var err error
				var host time.Duration
				cpu := m.time(func() {
					t0 := time.Now()
					res, err = a.RunScheme(name, in, b.opts)
					host = time.Since(t0)
				})
				key := schemeKey(a.Params.Name, name, in)
				if err == nil {
					err = b.book.check(key, res)
				} else {
					err = fmt.Errorf("%s: %w", key, err)
				}
				rep.op(err)
				if err == nil {
					cells = append(cells, cellRun{Key: key, Scheme: name, Input: in, Host: host, CPU: cpu, Res: res})
				}
			}
			rep.op(crossScheme(fmt.Sprintf("%s/%d", a.Params.Name, in), cells))
			out = append(out, cells...)
		}
	}
	return out
}

// crossScheme checks one (app, input)'s runs against check.CrossScheme.
func crossScheme(what string, cells []cellRun) error {
	if len(cells) != len(core.SchemeNames) {
		return fmt.Errorf("cross-scheme %s: only %d of %d runs succeeded", what, len(cells), len(core.SchemeNames))
	}
	var base, ideal *pipeline.Result
	var others []check.SchemeRun
	for _, c := range cells {
		switch c.Scheme {
		case "baseline":
			base = c.Res
		case "ideal":
			ideal = c.Res
		default:
			others = append(others, check.SchemeRun{Name: c.Scheme, Res: c.Res})
		}
	}
	if err := check.CrossScheme(base, ideal, others); err != nil {
		return fmt.Errorf("cross-scheme %s: %w", what, err)
	}
	return nil
}

// schemeCost accumulates one scheme's share of the traced run.
type schemeCost struct {
	host, exec          time.Duration
	instr               int64
	tapeInstr           int64
	calls               int
	callNs, accessNs    time.Duration
	schemeErr, cacheErr error
}

// traced measures the per-layer metrics: an untraced pass for
// reference, a pass with spans around each run and a timed executor,
// tape replays of every scheme on the first input, the grouped
// broadcast against solo runs, and the telemetry observers' cost.
func (b *schemesBench) traced(rep *report, tr *tracer, setup time.Duration) error {
	t0 := time.Now()
	plain := b.matrix(rep, &meter{})
	plainWall := time.Since(t0)
	ref := make(map[string]cellRun, len(plain))
	for _, c := range plain {
		ref[c.Key] = c
	}

	costs := make(map[string]*schemeCost)
	for _, s := range core.SchemeNames {
		costs[s] = &schemeCost{}
	}
	var execBusy time.Duration
	var steps int64
	t0 = time.Now()
	for _, a := range b.arts {
		for _, in := range b.plan.Inputs {
			for _, name := range core.SchemeNames {
				key := schemeKey(a.Params.Name, name, in)
				cfg, prog, err := schemeConfig(a, name, b.opts)
				if err != nil {
					return err
				}
				ex, err := exec.New(prog, a.Input(in))
				if err != nil {
					return err
				}
				src := &timedSource{src: ex}
				sp := tr.begin("pipeline.RunSource:"+key, -1)
				res, err := pipeline.RunSource(prog, src, cfg)
				tr.end(sp)
				rep.op(sameDigest(key, res, err, ref))
				c := costs[name]
				c.host += tr.spans[sp].dur()
				c.exec += src.busy
				c.instr += simulated(b.opts)
				execBusy += src.busy
				steps += src.steps
			}
		}
	}
	tracedWall := time.Since(t0)

	in0 := b.plan.Inputs[0]
	var tapeAccesses int
	var tapeAccessNs time.Duration
	var tapeInstr int64
	for _, a := range b.arts {
		for _, name := range core.SchemeNames {
			key := schemeKey(a.Params.Name, name, in0)
			c := costs[name]
			cfg, prog, err := schemeConfig(a, name, b.opts)
			if err != nil {
				return err
			}
			sp := tr.begin("tape:"+key, -1)
			res, tape, err := recordTape(prog, a.Input(in0), cfg)
			tr.end(sp)
			if err := sameDigest(key, res, err, ref); err != nil {
				rep.op(err)
				c.schemeErr, c.cacheErr = err, err
				continue
			}
			rep.op(nil)
			fresh, _, _ := schemeConfig(a, name, b.opts)
			sr, err := replayScheme(tape.tape, fresh.Scheme, prog, res)
			if err != nil && c.schemeErr == nil {
				c.schemeErr = fmt.Errorf("%s: %w", key, err)
			}
			ops, err := cacheOps(tape.tape, cfg)
			var cr cacheReplay
			if err == nil {
				cr, err = replayCache(ops, cfg, res)
			}
			if err != nil && c.cacheErr == nil {
				c.cacheErr = fmt.Errorf("%s: %w", key, err)
			}
			c.tapeInstr += simulated(b.opts)
			c.calls += sr.Calls
			c.callNs += sr.Elapsed
			c.accessNs += cr.Elapsed
			tapeInstr += simulated(b.opts)
			tapeAccesses += cr.Accesses
			tapeAccessNs += cr.Elapsed
		}
	}

	// Grouped broadcast: one RunSchemes call per app against the sum of
	// the same cells' solo runs from the untraced pass.
	var solo, grouped time.Duration
	for _, a := range b.arts {
		t := time.Now()
		res, err := a.RunSchemes(core.SchemeNames, in0, b.opts)
		grouped += time.Since(t)
		for _, name := range core.SchemeNames {
			key := schemeKey(a.Params.Name, name, in0)
			solo += ref[key].Host
			rep.op(sameDigest(key, res[name], err, ref))
		}
	}

	// Telemetry: the first input's cells again, plain and with a
	// registry, an epoch series and a tracer writing to io.Discard,
	// alternating which goes first.
	var plainT, observedT time.Duration
	var traced int64
	for i, a := range b.arts {
		for j, name := range core.SchemeNames {
			key := schemeKey(a.Params.Name, name, in0)
			obs := b.opts
			events := telemetry.NewTracer(io.Discard)
			obs.Telemetry = pipeline.Telemetry{Registry: telemetry.NewRegistry(),
				EpochLength: b.opts.Pipeline.MaxInstructions / 10, Tracer: events}
			runPlain := func() {
				t := time.Now()
				res, err := a.RunScheme(name, in0, b.opts)
				plainT += time.Since(t)
				rep.op(sameDigest(key, res, err, ref))
			}
			runObserved := func() {
				t := time.Now()
				res, err := a.RunScheme(name, in0, obs)
				observedT += time.Since(t)
				rep.op(sameDigest(key, res, err, ref))
				traced += events.Events()
			}
			if (i+j)%2 == 0 {
				runPlain()
				runObserved()
			} else {
				runObserved()
				runPlain()
			}
		}
	}

	b.setupLayers(rep, tr, setup)
	rep.set("exec.ns_per_step", float64(execBusy)/float64(steps), int(steps),
		fmt.Sprintf("%.1f ms of refills over %d steps", ms(execBusy), steps))
	for _, name := range core.SchemeNames {
		c := costs[name]
		nsPerInstr := float64(c.host) / float64(c.instr)
		rep.set("pipeline.ns_per_instr."+name, nsPerInstr, len(b.arts)*len(b.plan.Inputs),
			fmt.Sprintf("%.1f ms over %d instructions", ms(c.host), c.instr))
		if c.schemeErr != nil {
			rep.unmeasured("prefetcher.ns_per_call."+name, "replay did not reproduce the run: "+c.schemeErr.Error())
			rep.unmeasured("prefetcher.calls_per_kinstr."+name, "replay did not reproduce the run")
		} else {
			rep.set("prefetcher.ns_per_call."+name, float64(c.callNs)/float64(c.calls), c.calls,
				fmt.Sprintf("%.1f ms replaying %d calls", ms(c.callNs), c.calls))
			rep.set("prefetcher.calls_per_kinstr."+name, float64(c.calls)/float64(c.tapeInstr)*1e3, len(b.arts),
				fmt.Sprintf("%d calls over %d instructions", c.calls, c.tapeInstr))
		}
		if c.schemeErr != nil || c.cacheErr != nil {
			rep.unmeasured("pipeline.self_ns_per_instr."+name, "needs both replays of this scheme")
			continue
		}
		self := nsPerInstr - float64(c.exec)/float64(c.instr) -
			float64(c.callNs)/float64(c.tapeInstr) - float64(c.accessNs)/float64(c.tapeInstr)
		rep.set("pipeline.self_ns_per_instr."+name, self, len(b.arts)*len(b.plan.Inputs),
			fmt.Sprintf("%.1f ns/instr whole run minus exec %.1f, prefetcher %.1f, cache %.1f",
				nsPerInstr, float64(c.exec)/float64(c.instr), float64(c.callNs)/float64(c.tapeInstr),
				float64(c.accessNs)/float64(c.tapeInstr)))
	}
	var cacheErr error
	for _, name := range core.SchemeNames {
		if costs[name].cacheErr != nil {
			cacheErr = costs[name].cacheErr
		}
	}
	if cacheErr != nil {
		rep.unmeasuredPrefix("cache.", "replay did not reproduce the run: "+cacheErr.Error())
	} else {
		rep.set("cache.ns_per_access", float64(tapeAccessNs)/float64(tapeAccesses), tapeAccesses,
			fmt.Sprintf("%.1f ms replaying %d hierarchy calls", ms(tapeAccessNs), tapeAccesses))
		rep.set("cache.accesses_per_kinstr", float64(tapeAccesses)/float64(tapeInstr)*1e3, len(b.arts)*len(core.SchemeNames),
			fmt.Sprintf("%d calls over %d instructions", tapeAccesses, tapeInstr))
	}
	rep.set("stepcast.grouped_speedup", float64(solo)/float64(grouped), len(b.arts),
		fmt.Sprintf("solo runs %.1f ms / grouped RunSchemes %.1f ms", ms(solo), ms(grouped)))
	rep.set("telemetry.overhead_frac", float64(observedT)/float64(plainT)-1, len(b.arts)*len(core.SchemeNames),
		fmt.Sprintf("observed %.1f ms vs plain %.1f ms", ms(observedT), ms(plainT)))
	if traced > 0 {
		rep.set("telemetry.ns_per_event", float64(observedT-plainT)/float64(traced), int(traced),
			fmt.Sprintf("%.1f ms extra over %d traced events", ms(observedT-plainT), traced))
	}
	rep.set("perfbench.trace_overhead_frac", float64(tracedWall)/float64(plainWall)-1, len(plain),
		fmt.Sprintf("traced pass %.3f s vs untraced pass %.3f s", tracedWall.Seconds(), plainWall.Seconds()))
	rep.unmeasuredPrefix("runner.", "bypassed: schemes calls core directly, without the runner")
	rep.unmeasured("experiments.render_ms", "bypassed: schemes renders no figure")
	return tr.write(b.cfg.spanPath("schemes"))
}

// setupLayers reports the layers the set-up spans cover.
func (b *schemesBench) setupLayers(rep *report, tr *tracer, setup time.Duration) {
	build, nb := tr.total("workload.Build")
	rep.set("workload.build_ms", ms(build), nb, fmt.Sprintf("set-up %.3f s", setup.Seconds()))
	var samples int
	var profInstr int64
	for _, a := range b.arts {
		samples += len(a.Profile.Samples)
		profInstr += a.Profile.Instructions
	}
	collect, nc := tr.total("core.CollectProfile")
	rep.set("profile.collect_ms", ms(collect), nc, "")
	rep.set("profile.ns_per_instr", float64(collect)/float64(profInstr), nc,
		fmt.Sprintf("%.1f ms over %d profiled instructions", ms(collect), profInstr))
	rep.set("profile.samples", float64(samples), nc, "BTB-miss samples over the trio")
	analyze, na := tr.total("twigopt.Analyze")
	rep.set("twigopt.analyze_ms", ms(analyze), na, "set-up only")
	rep.set("twigopt.calls", float64(na), na, "")
	rep.set("twigopt.us_per_sample", float64(analyze)/float64(time.Microsecond)/float64(samples), samples,
		fmt.Sprintf("%.1f ms over %d samples", ms(analyze), samples))
	inject, ni := tr.total("program.Inject")
	rep.set("program.inject_ms", ms(inject), ni, "")
}

// sameDigest checks a re-run against the untraced pass's run of the
// same cell.
func sameDigest(key string, res *pipeline.Result, err error, ref map[string]cellRun) error {
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	want, ok := ref[key]
	if !ok {
		return fmt.Errorf("%s: the untraced pass has no run to compare", key)
	}
	if got, w := digest(res), digest(want.Res); got != w {
		return fmt.Errorf("%s: digest %s, untraced pass %s", key, got, w)
	}
	return nil
}
