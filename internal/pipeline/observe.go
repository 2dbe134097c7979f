package pipeline

import (
	"twig/internal/prefetcher"
	"twig/internal/telemetry"
)

// Telemetry configures a run's observability. The zero value disables
// everything and costs nothing on the hot path.
type Telemetry struct {
	// Registry receives the pipeline's counters plus the scheme's and
	// cache hierarchy's stats as live-reading gauges. nil with
	// EpochLength > 0 creates a private registry for the series.
	Registry *telemetry.Registry
	// EpochLength, when > 0, snapshots every registered metric each
	// EpochLength committed original instructions into Result.Series.
	// The final epoch may be partial.
	EpochLength int64
	// Tracer, when non-nil, writes the measured window's event stream,
	// teed after Config.Sink, and is flushed when the run completes. It
	// is telemetry output, not a Config.Sink: a traced run is neither
	// cached nor checkpointed.
	Tracer *telemetry.Tracer
	// Span, when non-nil, is the run's parent in the span-structured
	// run ledger: the pipeline hangs "warmup" and "measure" phase
	// children (with instruction/cycle attributes) under it. Spans are
	// per-phase, never per-instruction, so the hot loop is untouched.
	Span *telemetry.Span
}

// enabled reports whether any telemetry output was requested.
func (t *Telemetry) enabled() bool {
	return t.Registry != nil || t.EpochLength > 0 || t.Tracer != nil || t.Span != nil
}

// telemetryState is the per-run observability state hanging off the
// simulator.
type telemetryState struct {
	reg      *telemetry.Registry
	sampler  *telemetry.Sampler
	epochLen int64
	epoch    int64 // epochs emitted (1-based label of the last tick)
	nextTick int64 // measured-instruction count of the next boundary
	lastTick int64 // measured-instruction count of the last tick

	span     *telemetry.Span // run parent from Telemetry.Span
	spanWarm *telemetry.Span // open "warmup" phase, ended at telBegin
	spanMeas *telemetry.Span // open "measure" phase, ended at telEnd

	// missLead distributes the FDIP run-ahead lead observed at demand
	// L1i misses; pfLate distributes the residual wait of late
	// prefetch-buffer hits. Both power-of-two-bucketed, cycles.
	missLead *telemetry.Histogram
	pfLate   *telemetry.Histogram
}

// setupTelemetry builds the run's telemetry state and publishes every
// layer's counters into the registry. Called once before simulation.
func (s *simulator) setupTelemetry() {
	t := &s.cfg.Telemetry
	if !t.enabled() {
		return
	}
	reg := t.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	// Pipeline counters, warm-adjusted so they read measured-window
	// values (the warm snapshot is zero until the warmup boundary).
	reg.GaugeInt("pipeline_instructions", func() int64 { return s.res.Original - s.warmSnap.Original })
	reg.GaugeInt("pipeline_injected_instructions", func() int64 { return s.res.InjectedExecuted - s.warmSnap.InjectedExecuted })
	reg.Gauge("pipeline_cycles", func() float64 { return s.retireC - s.warmCycles })
	reg.Gauge("pipeline_ipc", func() float64 {
		if c := s.retireC - s.warmCycles; c > 0 {
			return float64(s.res.Original-s.warmSnap.Original) / c
		}
		return 0
	})
	reg.GaugeInt("pipeline_btb_resteers", func() int64 { return s.res.BTBResteers - s.warmSnap.BTBResteers })
	reg.GaugeInt("pipeline_cond_mispredicts", func() int64 { return s.res.CondMispredicts - s.warmSnap.CondMispredicts })
	reg.GaugeInt("pipeline_ras_mispredicts", func() int64 { return s.res.RASMispredicts - s.warmSnap.RASMispredicts })
	reg.GaugeInt("pipeline_ibtb_mispredicts", func() int64 { return s.res.IBTBMispredicts - s.warmSnap.IBTBMispredicts })
	reg.GaugeInt("pipeline_covered_misses", func() int64 { return s.res.CoveredMisses - s.warmSnap.CoveredMisses })
	reg.GaugeInt("pipeline_late_covered_misses", func() int64 { return s.res.LateCoveredMisses - s.warmSnap.LateCoveredMisses })
	reg.Gauge("pipeline_icache_stall_cycles", func() float64 { return s.res.ICacheStallCycles - s.warmSnap.ICacheStallCycles })
	reg.Gauge("pipeline_bpu_wait_cycles", func() float64 { return s.res.BPUWaitCycles - s.warmSnap.BPUWaitCycles })

	// Structure counters published by their own packages (raw
	// cumulative; the series' base row makes epoch deltas exact).
	s.hier.Register(reg, "icache")
	prefetcher.Register(reg, s.scheme)

	st := &telemetryState{
		reg:      reg,
		epochLen: t.EpochLength,
		span:     t.Span,
		missLead: reg.Histogram("pipeline_miss_lead_cycles"),
		pfLate:   reg.Histogram("pipeline_prefetch_late_cycles"),
	}
	if t.EpochLength > 0 {
		st.sampler = telemetry.NewSampler(reg, t.EpochLength)
	}
	if s.cfg.Warmup > 0 {
		st.spanWarm = st.span.Child("warmup", "pipeline")
	}
	s.tel = st
}

// telBegin marks measurement start (warmup boundary): it captures the
// series' base row and opens the "measure" phase span — warmup is not
// sampled.
func (s *simulator) telBegin() {
	t := s.tel
	if t == nil {
		return
	}
	if t.sampler != nil {
		t.sampler.Begin()
	}
	if t.spanWarm != nil {
		t.spanWarm.AttrInt("instructions", s.cfg.Warmup)
		t.spanWarm.End()
		t.spanWarm = nil
	}
	t.spanMeas = t.span.Child("measure", "pipeline")
	t.nextTick = t.epochLen
}

// armSink opens the event channel at measurement start: Config.Sink,
// then the event trace. Before it runs the sink is nil, so warmup is
// never observed.
func (s *simulator) armSink() {
	s.sink = s.cfg.Sink
	s.layout = s.cfg.Sink
	if t := s.cfg.Telemetry.Tracer; t != nil {
		s.sink = telemetry.Tee(s.sink, t)
	}
}

// telEnd closes the run's "measure" phase span with the measured
// window's headline numbers. Called once after the run loop finishes.
func (s *simulator) telEnd() {
	t := s.tel
	if t == nil || t.spanMeas == nil {
		return
	}
	t.spanMeas.AttrInt("instructions", s.res.Original-s.warmSnap.Original)
	t.spanMeas.AttrFloat("cycles", s.retireC-s.warmCycles)
	t.spanMeas.AttrInt("epochs", t.epoch)
	t.spanMeas.End()
	t.spanMeas = nil
}

// telTick emits one epoch boundary: sample the registry and mark the
// sink. mi is the cumulative measured original instruction count.
func (s *simulator) telTick(mi int64) {
	t := s.tel
	t.epoch++
	t.lastTick = mi
	cyc := s.retireC - s.warmCycles
	if t.sampler != nil {
		t.sampler.Sample(mi)
	}
	if s.sink != nil {
		s.sink.EpochMark(t.epoch, mi, cyc)
	}
}

// telSeries returns the sampled series, or nil when sampling was off.
func (s *simulator) telSeries() *telemetry.Series {
	if s.tel == nil || s.tel.sampler == nil {
		return nil
	}
	return s.tel.sampler.Series()
}
