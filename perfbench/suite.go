package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"twig/internal/core"
	"twig/internal/experiments"
	"twig/internal/pipeline"
	"twig/internal/runner"
	"twig/internal/telemetry"
)

// suiteIDs are the experiments the suite-warm workload renders. They
// fix their own inputs (training input 0, evaluation input 0), so the
// seed does not change this workload.
var suiteIDs = []string{"fig16", "fig17", "fig19"}

// suitePass is one RunSelected pass.
type suitePass struct {
	ctx    *experiments.Context
	run    *runner.Runner
	ledger *telemetry.Ledger
	text   string
	// wall is the pass's wall time, cpu the CPU time the process spent
	// on it (the gauge's excluded), pace the gauge samples taken during
	// it.
	wall, cpu time.Duration
	pace      pace
	err       error
}

// gaugeEvery is how often the calling thread samples the gauge while a
// timed pass runs on the runner's workers: each sample takes about 5 ms
// of CPU, about 2.5% of one of the two vCPUs of the reference machine.
// Samples taken only before and after each pass tracked it worse than
// no scaling at all (over five runs, scaled warm passes spread ±5.5%
// against ±2.3% unscaled); sampled during the pass, six passes spread
// ±1.7%.
const gaugeEvery = 200 * time.Millisecond

// runSuitePass renders the experiments once on a fresh runner and
// context over the disk cache in cacheDir. With a gauge, the calling
// thread samples it throughout the pass.
func runSuitePass(cacheDir string, ledger *telemetry.Ledger, g *gauge) (*suitePass, error) {
	c, err := runner.OpenCache(cacheDir, 0)
	if err != nil {
		return nil, err
	}
	run := runner.New(runner.Options{Workers: runtime.GOMAXPROCS(0), Cache: c, Ledger: ledger})
	var out bytes.Buffer
	ctx := experiments.NewContext(&out, window)
	ctx.SetRunner(run)
	ctx.Apps = slices.Clone(trio)
	p := &suitePass{ctx: ctx, run: run, ledger: ledger}
	done := make(chan error, 1)
	start, cpu, self := time.Now(), startProcess(), startThread()
	go func() { done <- ctx.RunSelected(suiteIDs, runtime.GOMAXPROCS(0)) }()
	if g == nil {
		p.err = <-done
	} else {
		tick := time.NewTicker(gaugeEvery)
		for waiting := true; waiting; {
			select {
			case p.err = <-done:
				waiting = false
			case <-tick.C:
				g.sample(&p.pace)
			}
		}
		tick.Stop()
	}
	p.wall, p.cpu = time.Since(start), cpu.elapsed()-self.elapsed()
	p.text = out.String()
	return p, nil
}

// executed counts the simulations and training profiles a pass ran
// rather than read from the cache.
func executed(s runner.Stats) int64 { return s.SimRuns + s.ProfileRuns + s.DerivedRuns }

func runSuiteWarm(cfg runConfig) (*report, error) {
	rep := newReport("suite-warm", cfg.Seed, cfg.Trace)
	opts := operatingPoint()
	book, err := loadDigests()
	if err != nil {
		return nil, err
	}
	dir, err := cfg.scratch("suite-warm")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	workers := runtime.GOMAXPROCS(0)
	rep.note("experiments %v on %v, %d runner workers, disk cache under .bench_build", suiteIDs, trio, workers)
	rep.note("the experiments fix their inputs (training 0, evaluation 0); the seed does not change this workload")

	// Set-up: the cold pass fills the cache. The traced run keeps its
	// ledger for the stores and training profiles it records.
	var coldLedger *telemetry.Ledger
	if cfg.Trace {
		coldLedger = telemetry.NewLedger()
	}
	g := newGauge()
	passGauge := g
	if cfg.Trace {
		passGauge = nil
	}
	cold, err := runSuitePass(dir, coldLedger, passGauge)
	if err != nil {
		return nil, err
	}
	if cold.err != nil {
		return nil, fmt.Errorf("cold pass: %w", cold.err)
	}
	rep.op(nil)
	coldStats := cold.run.Stats()
	// The cold pass ran the suite's cells grouped; each is checked
	// against its committed digest. The warm pass simulates nothing, so
	// the cells run again solo, after the cold pass and after every warm
	// pass, give this workload's simulation timings.
	grouped := map[string]string{}
	for _, app := range trio {
		res, err := cold.ctx.Schemes(app, 0, core.SchemeNames...)
		if err != nil {
			return nil, fmt.Errorf("cold pass cells of %s: %w", app, err)
		}
		var cells []cellRun
		for _, name := range core.SchemeNames {
			key := schemeKey(app, name, 0)
			err := book.check(key, res[name])
			rep.op(err)
			if err == nil {
				cells = append(cells, cellRun{Key: key, Scheme: name, Res: res[name]})
			}
			grouped[key] = digest(res[name])
		}
		rep.op(crossScheme(fmt.Sprintf("%s/0", app), cells))
	}
	solo, err := soloRound(rep, cold.ctx, grouped, opts, g)
	if err != nil {
		return nil, err
	}
	var heap retainedPeak
	heap.measure()
	coldText, coldWall, coldCPU, coldPace := cold.text, cold.wall, cold.cpu, cold.pace
	profiles := profileSizes(cold.ctx)
	cold = nil

	if !cfg.Trace {
		var walls, cpus, raw []time.Duration
		var warmPace pace
		start := time.Now()
		for len(cpus) == 0 || time.Since(start).Seconds() < cfg.Seconds {
			warm, err := runSuitePass(dir, nil, g)
			if err != nil {
				return nil, err
			}
			checkWarm(rep, warm, coldText)
			walls = append(walls, warm.wall)
			cpus = append(cpus, warm.pace.scale(warm.cpu))
			raw = append(raw, warm.cpu)
			warmPace = warmPace.merge(warm.pace)
			heap.measure()
			more, err := soloRound(rep, warm.ctx, grouped, opts, g)
			if err != nil {
				return nil, err
			}
			solo = append(solo, more...)
		}
		rep.note("timings are %s, scaled to the reference speed by the gauge (gauge.go)", cpuClockKind)
		rep.note("cold pass: %.3f CPU s, %.3f s of wall time, %s", coldCPU.Seconds(), coldWall.Seconds(), coldPace)
		rep.note("warm passes: CPU %s, scaled %s, wall %s, %s", seconds(raw), seconds(cpus), seconds(walls), warmPace)
		rep.set("setup_s", coldPace.scale(coldCPU).Seconds(), 1, "the cold pass that fills the cache")
		rep.set("cpu_s", median(cpus).Seconds(), len(cpus), "median warm pass")
		var cpu time.Duration
		for _, d := range solo {
			cpu += d
		}
		instr := int64(len(solo)) * simulated(opts)
		rep.set("sim_kips", float64(instr)/cpu.Seconds()/1e3, len(solo),
			fmt.Sprintf("the suite's cells run solo: %d instructions over %.3f scaled CPU s", instr, cpu.Seconds()))
		rep.setSimTimes(solo, "the suite's cells run solo after the cold pass and each warm pass")
		rep.set("sims_executed", float64(executed(coldStats)), 1,
			"cold set-up pass (simulations and training profiles); every warm pass must execute 0")
		rep.set("heap_peak_mb", heap.mb, len(walls)+1, "live after a full GC, after the cold pass and after each warm pass")
		return rep, nil
	}

	plain, err := runSuitePass(dir, nil, nil)
	if err != nil {
		return nil, err
	}
	checkWarm(rep, plain, coldText)
	plainWall := plain.wall
	plain = nil
	runtime.GC()
	traced, err := runSuitePass(dir, telemetry.NewLedger(), nil)
	if err != nil {
		return nil, err
	}
	checkWarm(rep, traced, coldText)
	if err := suiteLayers(rep, traced, coldLedger, profiles, workers); err != nil {
		return nil, err
	}
	if err := writeLedger(cfg.spanPath("suite-warm-cold"), coldLedger); err != nil {
		return nil, err
	}
	if err := writeLedger(cfg.spanPath("suite-warm-warm"), traced.ledger); err != nil {
		return nil, err
	}
	rep.set("perfbench.trace_overhead_frac", float64(traced.wall)/float64(plainWall)-1, 1,
		fmt.Sprintf("ledger-on warm pass %.3f s vs ledger-off %.3f s", traced.wall.Seconds(), plainWall.Seconds()))
	return rep, nil
}

// soloRound runs each of the suite's cells solo on the artifacts ctx
// memoized, checks it against the cold pass's grouped result, and
// returns the runs' CPU times, scaled by gauge samples taken after each.
func soloRound(rep *report, ctx *experiments.Context, grouped map[string]string, opts core.Options, g *gauge) ([]time.Duration, error) {
	m := &meter{g: g, after: 1}
	var out []time.Duration
	for _, app := range trio {
		a, err := ctx.Artifacts(app, 0)
		if err != nil {
			return nil, fmt.Errorf("artifacts of %s: %w", app, err)
		}
		for _, name := range core.SchemeNames {
			key := schemeKey(app, name, 0)
			var res *pipeline.Result
			out = append(out, m.time(func() { res, err = a.RunScheme(name, 0, opts) }))
			if err == nil && digest(res) != grouped[key] {
				err = fmt.Errorf("%s: solo run differs from the grouped cold pass", key)
			}
			rep.op(err)
		}
	}
	for i := range out {
		out[i] = m.pace.scale(out[i])
	}
	return out, nil
}

// checkWarm counts a warm pass's three checks: it rendered without
// error, it printed the cold pass's text byte for byte, and it executed
// no simulation.
func checkWarm(rep *report, warm *suitePass, coldText string) {
	rep.op(warm.err)
	if warm.text != coldText {
		rep.op(fmt.Errorf("warm pass text differs from the cold pass (%d vs %d bytes)", len(warm.text), len(coldText)))
	} else {
		rep.op(nil)
	}
	if n := executed(warm.run.Stats()); n != 0 {
		rep.op(fmt.Errorf("warm pass executed %d simulations or profiles, want 0", n))
	} else {
		rep.op(nil)
	}
}

// profileInfo is one app's training profile size.
type profileInfo struct {
	samples int
	instr   int64
}

// profileSizes reads each app's profile from the context's memoized
// artifacts.
func profileSizes(ctx *experiments.Context) map[string]profileInfo {
	out := map[string]profileInfo{}
	for _, app := range trio {
		a, err := ctx.Artifacts(app, 0)
		if err != nil {
			continue
		}
		out[string(app)] = profileInfo{len(a.Profile.Samples), a.Profile.Instructions}
	}
	return out
}

// indexRecords maps each record's span id to it.
func indexRecords(recs []telemetry.LedgerRecord) map[string]*telemetry.LedgerRecord {
	byID := make(map[string]*telemetry.LedgerRecord, len(recs))
	for i := range recs {
		byID[recs[i].ID] = &recs[i]
	}
	return byID
}

// rootOf returns the root span above r.
func rootOf(byID map[string]*telemetry.LedgerRecord, r *telemetry.LedgerRecord) *telemetry.LedgerRecord {
	for r.Parent != "" {
		r = byID[r.Parent]
	}
	return r
}

// writeLedger stores a runner ledger as JSONL at path.
func writeLedger(path string, l *telemetry.Ledger) error {
	return writeFile(path, l.WriteJSONL)
}

// ledgerRecords decodes a ledger's spans with their timing.
func ledgerRecords(l *telemetry.Ledger) ([]telemetry.LedgerRecord, error) {
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	return telemetry.ReadLedger(&buf)
}

// suiteLayers derives the per-layer metrics of suite-warm from the
// traced warm pass's ledger and the cold pass's.
func suiteLayers(rep *report, warm *suitePass, coldLedger *telemetry.Ledger, profiles map[string]profileInfo, workers int) error {
	recs, err := ledgerRecords(warm.ledger)
	if err != nil {
		return err
	}
	coldRecs, err := ledgerRecords(coldLedger)
	if err != nil {
		return err
	}
	us := func(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
	byID := indexRecords(recs)

	var probes, hits, decodes, waits, attempts int
	var decode, wait, busy time.Duration
	var bytesMax, bytesTotal float64
	var analyze, build time.Duration
	var analyzeCalls, buildCalls, samples int
	var jobs [][2]int64
	for i := range recs {
		r := &recs[i]
		switch {
		case r.Name == "cache.probe" || strings.HasPrefix(r.Name, "probe:"):
			probes++
			if t, _ := r.Attrs["tier"].(string); t != "" && t != "miss" {
				hits++
			}
		case r.Name == "decode":
			decodes++
			decode += us(r.DurUS)
			if b, ok := r.Attrs["bytes"].(float64); ok {
				bytesTotal += b
				bytesMax = max(bytesMax, b)
			}
		case r.Name == "queue.wait":
			waits++
			wait += us(r.DurUS)
		case r.Name == "attempt":
			attempts++
			busy += us(r.DurUS)
			root := rootOf(byID, r).Name
			switch {
			case strings.HasPrefix(root, "job:art/"):
				analyze += us(r.DurUS)
				analyzeCalls++
				app := strings.SplitN(strings.TrimPrefix(root, "job:art/"), "/", 2)[0]
				samples += profiles[app].samples
			case strings.HasPrefix(root, "job:build/"):
				build += us(r.DurUS)
				buildCalls++
			}
		}
		if r.Parent == "" && (strings.HasPrefix(r.Name, "job:") || strings.HasPrefix(r.Name, "group:")) {
			jobs = append(jobs, [2]int64{r.StartUS, r.StartUS + r.DurUS})
		}
	}
	var render time.Duration
	renders := 0
	for i := range recs {
		r := &recs[i]
		if r.Parent == "" && strings.HasPrefix(r.Name, "exp:") {
			renders++
			covered := coverage(append([][2]int64(nil), jobs...), r.StartUS, r.StartUS+r.DurUS)
			render += us(r.DurUS - covered)
		}
	}

	// Stores happen after a job's last attempt, inside its root span.
	// Grouped members are stored after their group also waits for
	// members other groups claimed, so only plain jobs are counted.
	coldByID := indexRecords(coldRecs)
	lastAttempt := map[string]int64{}
	var collect, store time.Duration
	var collects, stores int
	for i := range coldRecs {
		r := &coldRecs[i]
		if r.Name != "attempt" {
			continue
		}
		root := rootOf(coldByID, r)
		if end := r.StartUS + r.DurUS; end > lastAttempt[root.ID] {
			lastAttempt[root.ID] = end
		}
		if strings.HasPrefix(root.Name, "job:profile/") {
			collect += us(r.DurUS)
			collects++
		}
	}
	for id, end := range lastAttempt {
		root := coldByID[id]
		if !strings.HasPrefix(root.Name, "job:") {
			continue
		}
		if k, _ := root.Attrs["kind"].(string); k == "other" {
			continue // builds and analyses carry no hash and store nothing
		}
		store += us(root.StartUS + root.DurUS - end)
		stores++
	}

	st := warm.run.Stats()
	rep.set("runner.hit_ratio", float64(hits)/float64(probes), probes, fmt.Sprintf("%d hits of %d probes", hits, probes))
	rep.set("runner.decode_ms", ms(decode), decodes, "warm pass disk-tier decodes")
	rep.set("runner.store_ms", ms(store), stores, "cold pass stores of plain (ungrouped) jobs")
	rep.set("runner.entry_mb", bytesMax/(1<<20), decodes, fmt.Sprintf("largest entry decoded; %.1f MiB in all", bytesTotal/(1<<20)))
	rep.set("runner.queue_wait_ms", ms(wait), waits, "")
	rep.set("runner.busy_frac", float64(busy)/float64(time.Duration(workers)*warm.wall), attempts,
		fmt.Sprintf("%.1f ms of attempts over %d workers × %.1f ms", ms(busy), workers, ms(warm.wall)))
	if executed(st) == 0 {
		rep.set("runner.rebuilds", float64(st.OtherRuns), 1, "builds and analyses the warm pass re-ran")
	} else {
		rep.unmeasured("runner.rebuilds", "the warm pass executed simulations")
	}
	rep.set("experiments.render_ms", ms(render), renders, "experiment spans minus the job spans inside them")
	rep.set("twigopt.analyze_ms", ms(analyze), analyzeCalls, "job:art attempts: analysis plus injection")
	rep.set("twigopt.calls", float64(analyzeCalls), analyzeCalls, "")
	if samples > 0 {
		rep.set("twigopt.us_per_sample", float64(analyze)/float64(time.Microsecond)/float64(samples), samples,
			fmt.Sprintf("%.1f ms over %d samples", ms(analyze), samples))
	}
	rep.unmeasured("program.inject_ms", "inside the runner's job:art spans; counted in twigopt.analyze_ms")
	rep.set("workload.build_ms", ms(build), buildCalls, "warm pass job:build attempts")
	var profInstr int64
	var profSamples int
	for _, p := range profiles {
		profInstr += p.instr
		profSamples += p.samples
	}
	rep.set("profile.collect_ms", ms(collect), collects, "cold pass job:profile attempts")
	if profInstr > 0 && collects > 0 {
		rep.set("profile.ns_per_instr", float64(collect)/float64(profInstr), collects,
			fmt.Sprintf("%.1f ms over %d profiled instructions", ms(collect), profInstr))
	}
	rep.set("profile.samples", float64(profSamples), len(profiles), "BTB-miss samples over the trio")
	const bypass = "bypassed: the warm pass runs no simulation"
	for _, p := range []string{"exec.", "prefetcher.", "cache.", "pipeline.", "stepcast.", "telemetry."} {
		rep.unmeasuredPrefix(p, bypass)
	}
	return nil
}
