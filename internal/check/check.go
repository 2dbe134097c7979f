// Package check is the simulator's verification layer: machine-checked
// structural laws that every run must obey regardless of workload,
// scheme, or configuration. It complements the golden-number tests —
// which pin *values* — by pinning *relationships*, so aggressive
// refactoring of the timing model for speed cannot silently bend the
// model's own rules.
//
// Three mechanisms, used together by the test suite and the twigcheck
// CI job:
//
//   - Recorder (this file) is a run's telemetry.Sink: it observes one
//     run's event stream and cross-checks it against the run's Result,
//     its telemetry registry, and its epoch series.
//   - CrossScheme (oracle.go) runs differential oracles over the same
//     workload simulated under different BTB schemes and asserts the
//     partial-order laws between them (ideal dominates, coverage is
//     bounded, signed coverage is sane).
//   - The pipeline package's own per-instruction assertions (clock
//     monotonicity, FTQ/ROB/RAS occupancy bounds), compiled in under
//     the twigcheck build tag; Enabled reports whether this build has
//     them.
//
// The twig facade exposes all of this through Config.Check: when set
// (or in any twigcheck build), every simulation run is verified before
// its Result is returned.
package check

import (
	"fmt"
	"math"
	"strings"

	"twig/internal/pipeline"
	"twig/internal/telemetry"
)

// Recorder observes one simulation run as its telemetry.Sink and
// verifies the event stream against the run's Result. Attach it to the
// run's Config before simulating, then call Verify on the Result.
//
// A Recorder verifies a single run; reuse across runs is a caller bug
// (counts would accumulate) and Verify will report the mismatch.
type Recorder struct {
	telemetry.NopSink // block entries carry no checked law

	// warmup records whether the run had a warmup prefix. The sink
	// observes only the measured window, but scheme-cumulative
	// lifecycle laws (issued >= used) can be legitimately violated by
	// warm-adjusted deltas when entries staged during warmup are
	// consumed during measurement, so those laws are asserted only when
	// warmup == 0.
	warmup bool

	resteers                    [len(resteerCauses)]int64
	issued, dropped, used, late int64
	btbMisses                   int64
	icacheMiss                  int64

	epochs         int64
	lastEpochInstr int64
	lastEpochCycle float64

	// Monotonicity state per clock domain: the fetch-time events
	// (Taken, BTBMiss, Resteer, ICacheMiss) and the BPU-time prefetch
	// events each see a non-decreasing cycle sequence.
	lastFetchCycle float64
	lastBPUCycle   float64

	violations []string
}

// resteerCauses orders Recorder.resteers.
var resteerCauses = [...]string{telemetry.CauseBTBMiss, telemetry.CauseCond, telemetry.CauseRAS, telemetry.CauseIBTB}

// Attach makes a new Recorder the observer of runs under cfg, teed
// after any sink already installed (that sink keeps receiving every
// event first). It reads cfg.Warmup to know which cumulative laws
// apply.
func Attach(cfg *pipeline.Config) *Recorder {
	r := &Recorder{warmup: cfg.Warmup > 0}
	cfg.Sink = telemetry.Tee(cfg.Sink, r)
	return r
}

// Taken implements telemetry.Sink.
func (r *Recorder) Taken(_, _ int32, cycle float64) { r.fetch("Taken", cycle) }

// BTBMiss implements telemetry.Sink.
func (r *Recorder) BTBMiss(_ int64, cycle float64, _ int32, _ uint64, _ string) {
	r.btbMisses++
	r.fetch("BTBMiss", cycle)
}

// Resteer implements telemetry.Sink.
func (r *Recorder) Resteer(_ int64, cycle float64, cause string, _ uint64) {
	for i, c := range resteerCauses {
		if c == cause {
			r.resteers[i]++
			r.fetch("Resteer", cycle)
			return
		}
	}
	r.violationf("Resteer: unknown cause %q", cause)
}

// PrefetchIssue implements telemetry.Sink.
func (r *Recorder) PrefetchIssue(_ int64, cycle float64, _ uint64, _ float64) {
	r.issued++
	r.bpu("PrefetchIssue", cycle)
}

// PrefetchDrop implements telemetry.Sink.
func (r *Recorder) PrefetchDrop(_ int64, cycle float64, _ uint64) {
	r.dropped++
	r.bpu("PrefetchDrop", cycle)
}

// PrefetchUse implements telemetry.Sink.
func (r *Recorder) PrefetchUse(_ int64, cycle float64, _ uint64, late float64) {
	r.used++
	if late > 0 {
		r.late++
	}
	r.bpu("PrefetchUse", cycle)
}

// ICacheMiss implements telemetry.Sink.
func (r *Recorder) ICacheMiss(_ int64, cycle float64, _ uint64, _, _ float64) {
	r.icacheMiss++
	r.fetch("ICacheMiss", cycle)
}

// EpochMark implements telemetry.Sink.
func (r *Recorder) EpochMark(epoch, instructions int64, cycle float64) {
	r.epochs++
	if epoch != r.epochs {
		r.violationf("EpochMark: epoch %d out of sequence (want %d)", epoch, r.epochs)
	}
	if instructions <= r.lastEpochInstr {
		r.violationf("EpochMark: instruction count %d not past previous boundary %d", instructions, r.lastEpochInstr)
	}
	if cycle < r.lastEpochCycle {
		r.violationf("EpochMark: cycle moved backwards: %.3f -> %.3f", r.lastEpochCycle, cycle)
	}
	r.lastEpochInstr, r.lastEpochCycle = instructions, cycle
}

// fetch and bpu assert that each clock domain's event cycles never
// move backwards.
func (r *Recorder) fetch(event string, cycle float64) {
	r.monotone(&r.lastFetchCycle, "fetch", event, cycle)
}
func (r *Recorder) bpu(event string, cycle float64) { r.monotone(&r.lastBPUCycle, "BPU", event, cycle) }

func (r *Recorder) monotone(last *float64, domain, event string, cycle float64) {
	if cycle < *last {
		r.violationf("%s: %s-domain cycle moved backwards: %.3f -> %.3f", event, domain, *last, cycle)
	}
	*last = cycle
}

func (r *Recorder) violationf(format string, args ...any) {
	// Cap stored violations: a systematically broken run would
	// otherwise accumulate one string per instruction.
	if len(r.violations) < 32 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// Verify cross-checks the recorded event stream against the run's
// Result and asserts the Result's own internal laws. It returns an
// error describing every violated law, or nil.
func (r *Recorder) Verify(res *pipeline.Result) error {
	v := append([]string(nil), r.violations...)
	fail := func(format string, args ...any) {
		v = append(v, fmt.Sprintf(format, args...))
	}
	eq := func(law string, got, want int64) {
		if got != want {
			fail("%s: %d != %d", law, got, want)
		}
	}

	// Resteer causes: each event count matches its Result counter, and
	// the causes sum to the total resteer volume.
	eq("Resteer(btb_miss) vs Result.BTBResteers", r.resteers[0], res.BTBResteers)
	eq("Resteer(cond) vs Result.CondMispredicts", r.resteers[1], res.CondMispredicts)
	eq("Resteer(ras) vs Result.RASMispredicts", r.resteers[2], res.RASMispredicts)
	eq("Resteer(ibtb) vs Result.IBTBMispredicts", r.resteers[3], res.IBTBMispredicts)
	var observed int64
	for _, n := range r.resteers {
		observed += n
	}
	eq("resteer causes sum to total resteers", observed,
		res.BTBResteers+res.CondMispredicts+res.RASMispredicts+res.IBTBMispredicts)
	eq("BTBMiss count vs Result.BTBResteers", r.btbMisses, res.BTBResteers)

	// Prefetch lifecycle: events match Result counters; issue volume
	// bounds use (cumulative law, warmup-free runs only).
	eq("PrefetchUse count vs Result.CoveredMisses", r.used, res.CoveredMisses)
	eq("PrefetchUse(late) count vs Result.LateCoveredMisses", r.late, res.LateCoveredMisses)
	eq("Result.CoveredMisses vs scheme Prefetch.Used", res.CoveredMisses, res.Prefetch.Used)
	eq("Result.LateCoveredMisses vs scheme Prefetch.Late", res.LateCoveredMisses, res.Prefetch.Late)
	if !r.warmup {
		// Issue accounting is checkable from events only for software
		// prefetching: brprefetch/brcoalesce insertions all pass through
		// InsertPrefetch and emit PrefetchIssue or PrefetchDrop.
		// Hardware prefetchers (Shotgun, Confluence) issue internally
		// during predecode, which the sink deliberately does not see.
		if staged := r.issued + r.dropped; staged > 0 || res.Prefetch.Issued == 0 {
			eq("PrefetchIssue+PrefetchDrop vs scheme Prefetch.Issued", staged, res.Prefetch.Issued)
			eq("PrefetchDrop vs scheme Prefetch.Redundant", r.dropped, res.Prefetch.Redundant)
		}
		if res.Prefetch.Used > res.Prefetch.Issued {
			fail("prefetch lifecycle: used %d exceeds issued %d", res.Prefetch.Used, res.Prefetch.Issued)
		}
	}
	if res.Prefetch.Late > res.Prefetch.Used {
		fail("prefetch lifecycle: late %d exceeds used %d", res.Prefetch.Late, res.Prefetch.Used)
	}

	// I-cache: one event per demand miss.
	eq("ICacheMiss count vs Result.ICacheMisses", r.icacheMiss, res.ICacheMisses)
	if res.ICacheMisses > res.ICacheAccesses {
		fail("icache misses %d exceed accesses %d", res.ICacheMisses, res.ICacheAccesses)
	}

	// Result-internal laws.
	eq("Instructions = Original + InjectedExecuted", res.Instructions, res.Original+res.InjectedExecuted)
	if res.LateCoveredMisses > res.CoveredMisses {
		fail("late covered misses %d exceed covered misses %d", res.LateCoveredMisses, res.CoveredMisses)
	}
	if res.Cycles <= 0 {
		fail("non-positive cycle count %.3f", res.Cycles)
	}
	if ipc := res.IPC(); ipc <= 0 || math.IsNaN(ipc) || math.IsInf(ipc, 0) {
		fail("degenerate IPC %f", ipc)
	}
	if f := res.FrontendBoundFrac(); f < 0 || f > 1 {
		fail("frontend-bound fraction %f outside [0,1]", f)
	}
	for k, m := range res.BTB.Misses {
		if m > res.BTB.Accesses[k] {
			fail("BTB kind %d: misses %d exceed accesses %d", k, m, res.BTB.Accesses[k])
		}
	}

	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d law(s) violated:\n  %s", len(v), strings.Join(v, "\n  "))
}

// VerifyRegistry asserts that the run's telemetry registry reads the
// same numbers the Result reports. The pipeline gauges are
// warm-adjusted and comparable for any run; the raw structure counters
// (btb_*, icache_*) are only compared on warmup-free runs.
func (r *Recorder) VerifyRegistry(reg *telemetry.Registry, res *pipeline.Result) error {
	var v []string
	expect := func(name string, want float64) {
		got, ok := reg.Value(name)
		if !ok {
			v = append(v, fmt.Sprintf("metric %q not registered", name))
			return
		}
		if math.Abs(got-want) > 1e-6 {
			v = append(v, fmt.Sprintf("metric %q reads %v, Result says %v", name, got, want))
		}
	}
	expect("pipeline_instructions", float64(res.Original))
	expect("pipeline_injected_instructions", float64(res.InjectedExecuted))
	expect("pipeline_cycles", res.Cycles)
	expect("pipeline_btb_resteers", float64(res.BTBResteers))
	expect("pipeline_cond_mispredicts", float64(res.CondMispredicts))
	expect("pipeline_ras_mispredicts", float64(res.RASMispredicts))
	expect("pipeline_ibtb_mispredicts", float64(res.IBTBMispredicts))
	expect("pipeline_covered_misses", float64(res.CoveredMisses))
	expect("pipeline_late_covered_misses", float64(res.LateCoveredMisses))
	if !r.warmup {
		expect("btb_direct_misses", float64(res.BTB.DirectMisses()))
		expect("btb_direct_accesses", float64(res.BTB.DirectAccesses()))
		expect("icache_l1_misses", float64(res.ICacheMisses))
		expect("prefetch_issued", float64(res.Prefetch.Issued))
		expect("prefetch_used", float64(res.Prefetch.Used))
	}
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("check: registry disagrees with Result:\n  %s", strings.Join(v, "\n  "))
}

// VerifySeries asserts the epoch series is additive: per-epoch deltas
// sum (telescope) to the measured whole-run counters, for instruction
// counts and every headline column. nil series (sampling off) passes.
func VerifySeries(res *pipeline.Result) error {
	s := res.Series
	if s == nil {
		return nil
	}
	var v []string
	if s.Len() == 0 {
		return fmt.Errorf("check: series sampled but empty")
	}
	var instrs int64
	for e := 0; e < s.Len(); e++ {
		instrs += s.DeltaInstructions(e)
	}
	if instrs != res.Original {
		v = append(v, fmt.Sprintf("epoch instruction deltas sum to %d, Result says %d", instrs, res.Original))
	}
	sum := func(col string) float64 {
		c := s.Col(col)
		var t float64
		for e := 0; e < s.Len(); e++ {
			t += s.Delta(e, c)
		}
		return t
	}
	expect := func(col string, want float64) {
		if got := sum(col); math.Abs(got-want) > 1e-6 {
			v = append(v, fmt.Sprintf("column %q epoch deltas sum to %v, Result says %v", col, got, want))
		}
	}
	expect("pipeline_instructions", float64(res.Original))
	expect("pipeline_cycles", res.Cycles)
	expect("btb_direct_misses", float64(res.BTB.DirectMisses()))
	expect("pipeline_btb_resteers", float64(res.BTBResteers))
	expect("pipeline_covered_misses", float64(res.CoveredMisses))
	expect("icache_l1_misses", float64(res.ICacheMisses))
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("check: series not additive:\n  %s", strings.Join(v, "\n  "))
}
