// Package pipeline is the cycle-approximate CPU model: a 6-wide
// out-of-order core with the decoupled frontend + FDIP organization the
// paper's Table 1 describes (24-entry FTQ, 224-entry ROB, 8K-entry BTB
// via a prefetcher.Scheme, 32-entry RAS, 4K-entry IBTB, 32KB L1i backed
// by L2/L3).
//
// # Timing model
//
// The simulator advances three clocks over the dynamic instruction
// stream in a single pass, O(1) per instruction:
//
//   - bpuClock: when the branch prediction unit emitted the fetch
//     target for this instruction. Sequential instructions stream at
//     machine width; each taken branch costs a full BPU cycle; the BPU
//     stalls when the FTQ is full (it may run at most FTQSize branches
//     ahead of fetch).
//   - fetchClock: when the fetch engine obtained the instruction:
//     max(previous fetch + width slot, bpuClock, ROB backpressure) plus
//     any exposed I-cache stall. FDIP issues the line prefetch when the
//     BPU enqueues the instruction (bpuClock), so a miss with latency L
//     exposes only max(0, L − (fetch − bpu)): frontend run-ahead hides
//     instruction misses, which is exactly FDIP's mechanism.
//   - retireClock: bounded by the application's backend CPI and by
//     fetchClock + pipeline depth. Reported cycles are the final
//     retireClock.
//
// BTB misses steer the BPU: a miss on a taken branch is discovered only
// after the instruction is fetched and decoded, so bpuClock jumps to
// fetchClock + DecodeResteer and the FTQ drains — subsequent I-cache
// misses become exposed because run-ahead was lost. This second-order
// cost is the paper's central observation (§2.1): an ideal BTB helps
// more than an ideal I-cache because it both removes resteers and keeps
// FDIP running ahead.
//
// Direction mispredicts, RAS mispredicts and IBTB target mispredicts
// resteer from execute (ExecResteer). Twig's injected brprefetch /
// brcoalesce instructions consume fetch slots like any instruction and
// stage entries into the scheme's prefetch buffer after a small fixed
// latency (brprefetch) or an L2-class table-load latency (brcoalesce).
package pipeline

import (
	"fmt"
	"math"
	"strings"

	"twig/internal/bpu"
	"twig/internal/btb"
	"twig/internal/cache"
	"twig/internal/exec"
	"twig/internal/isa"
	"twig/internal/prefetcher"
	"twig/internal/program"
	"twig/internal/telemetry"
)

// Config parameterizes one simulation run.
type Config struct {
	// Width is the machine width in instructions per cycle (Table 1: 6).
	Width float64
	// FTQSize is the fetch target queue depth in branches (Table 1: 24;
	// Fig. 28 sweeps 1-64).
	FTQSize int
	// ROBSize bounds how many instructions fetch may run ahead of
	// retire (Table 1: 224).
	ROBSize int
	// DecodeResteer is the penalty in cycles for a frontend resteer
	// when a BTB miss is discovered at decode.
	DecodeResteer float64
	// ExecResteer is the penalty for execute-detected mispredicts
	// (direction, indirect target, return address).
	ExecResteer float64
	// BackendDepth is the fetch-to-retire pipeline depth in cycles.
	BackendDepth float64
	// BackendCPI is the application's backend cycles-per-instruction
	// component (data stalls, dependencies).
	BackendCPI float64
	// CondMispredictRate is the direction predictor's per-branch
	// mispredict probability (TAGE-SC-L proxy), used when UseTAGE is
	// false.
	CondMispredictRate float64
	// UseTAGE replaces the statistical direction model with the
	// structural TAGE predictor (bpu.TAGE). Slower but history-exact;
	// the ablation-tage experiment quantifies the difference.
	UseTAGE bool
	// RASEntries sizes the return address stack (Table 1: 32; Shotgun
	// runs use 1536).
	RASEntries int
	// IBTBEntries/IBTBWays size the indirect target buffer (Table 1:
	// 4096, 4-way).
	IBTBEntries, IBTBWays int
	// Hierarchy is the instruction-side cache hierarchy.
	Hierarchy cache.HierarchyConfig
	// IdealICache makes every I-cache access hit (the Fig. 2 limit
	// study).
	IdealICache bool
	// FDIP enables decoupled-frontend prefetching; disabling it exposes
	// full I-cache latency on every miss (no run-ahead hiding).
	FDIP bool
	// NextLinePrefetch is the degree of the sequential L1i prefetcher
	// (lines prefetched past each accessed line; 0 disables). Real
	// frontends pair FDIP with a simple sequential prefetcher.
	NextLinePrefetch int
	// BrPrefetchLatency is the delay from a brprefetch instruction's
	// execution to its entry becoming ready in the prefetch buffer.
	BrPrefetchLatency float64
	// CoalesceLoadLatency is the corresponding delay for brcoalesce,
	// dominated by loading the key-value table entry (L2-class).
	CoalesceLoadLatency float64
	// MaxInstructions is the number of *original* (non-injected)
	// instructions to simulate and measure.
	MaxInstructions int64
	// Warmup is the number of original instructions to simulate before
	// measurement begins: caches, BTB and predictors reach steady state
	// and the statistics are then reset, matching the paper's
	// "representative, steady-state" trace windows. The sink observes
	// only the measured window.
	Warmup int64
	// Scheme is the BTB organization + prefetcher. nil means a plain
	// baseline BTB with no software-prefetch buffer.
	Scheme prefetcher.Scheme
	// Sink receives the measured window's event stream (profilers,
	// recorders, live endpoints); nil disables it. The event trace,
	// Telemetry.Tracer, receives the same events after it, except the
	// layout-level BlockEnter and Taken, which it does not record.
	Sink telemetry.Sink
	// Telemetry configures the run's observability: metric registry
	// publication, epoch sampling into Result.Series, and structured
	// event tracing. Zero-value disables it all.
	Telemetry Telemetry
}

// DefaultConfig returns Table 1's configuration with the latencies used
// throughout the evaluation. BackendCPI and CondMispredictRate are
// per-application and must be set from the workload parameters.
func DefaultConfig() Config {
	return Config{
		Width:               6,
		FTQSize:             24,
		ROBSize:             224,
		DecodeResteer:       9,
		ExecResteer:         16,
		BackendDepth:        10,
		BackendCPI:          0.33,
		CondMispredictRate:  0.006,
		RASEntries:          32,
		IBTBEntries:         4096,
		IBTBWays:            4,
		Hierarchy:           cache.DefaultHierarchy(),
		FDIP:                true,
		NextLinePrefetch:    2,
		BrPrefetchLatency:   3,
		CoalesceLoadLatency: 16,
		MaxInstructions:     2_000_000,
	}
}

// legacyObservers is the %+v text of the empty observer-callback struct
// that Sink replaced. Canonical renders it in Sink's place, so content
// hashes and checkpoint fingerprints taken before then stay valid.
const legacyObservers = "Hooks:{OnTaken:<nil> OnBTBMiss:<nil> OnBlockEnter:<nil> OnResteer:<nil> OnPrefetch:<nil> OnICacheMiss:<nil> OnEpoch:<nil>}"

// Canonical renders c's value fields (%+v) for runner content hashes
// and checkpoint fingerprints. The scheme instance, sink and telemetry
// outputs are zeroed: none is a value, and callers attach them per run.
func (c Config) Canonical() string {
	c.Scheme = nil
	c.Sink = nil
	c.Telemetry = Telemetry{}
	return strings.Replace(fmt.Sprintf("%+v", c), "Sink:<nil>", legacyObservers, 1)
}

// Result summarizes one run.
type Result struct {
	// Instructions counts all executed instructions; Original excludes
	// Twig-injected prefetch instructions.
	Instructions, Original int64
	// InjectedExecuted counts executed brprefetch/brcoalesce
	// instructions (the paper's dynamic overhead numerator, Fig. 22).
	InjectedExecuted int64
	// Cycles is the retire clock at the last instruction.
	Cycles float64
	// BTB holds per-kind access/miss counts from the scheme.
	BTB btb.Stats
	// Prefetch holds the scheme's prefetch effectiveness counters.
	Prefetch prefetcher.PrefetchStats
	// CoveredMisses counts demand lookups that would have missed but
	// were served by a prefetched entry.
	CoveredMisses int64
	// LateCoveredMisses is the subset served late (partial stall).
	LateCoveredMisses int64
	// ICache statistics (demand path).
	ICacheAccesses, ICacheMisses int64
	// ICacheStallCycles is the exposed (non-hidden) instruction fetch
	// stall time.
	ICacheStallCycles float64
	// BPUWaitCycles is fetch time spent waiting for the BPU — the
	// resteer-induced starvation component.
	BPUWaitCycles float64
	// BTBResteers counts decode-time resteers from BTB misses;
	// CondMispredicts/RASMispredicts/IBTBMispredicts count
	// execute-time resteers by cause.
	BTBResteers                                      int64
	CondMispredicts, RASMispredicts, IBTBMispredicts int64
	// MissLeadSum accumulates the FDIP run-ahead (fetch minus BPU
	// clock) observed at each demand L1i miss; MissLeadSum/ICacheMisses
	// is the mean hiding capacity — a model diagnostic.
	MissLeadSum float64
	// Series is the epoch time series sampled from the metric registry
	// (nil unless Config.Telemetry.EpochLength was set).
	Series *telemetry.Series
}

// IPC returns original instructions per cycle — injected prefetches are
// overhead, not work, so speedups computed from this IPC charge Twig
// for them.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Original) / r.Cycles
}

// MPKI returns direct-branch BTB misses per kilo original instructions
// (the Fig. 3 metric).
func (r *Result) MPKI() float64 {
	if r.Original == 0 {
		return 0
	}
	return float64(r.BTB.DirectMisses()) / float64(r.Original) * 1000
}

// FrontendBoundFrac approximates the Top-Down frontend-bound share
// (Fig. 1): the fraction of cycles in which fetch was starved by the
// BPU or by exposed I-cache misses.
func (r *Result) FrontendBoundFrac() float64 {
	if r.Cycles == 0 {
		return 0
	}
	f := (r.BPUWaitCycles + r.ICacheStallCycles) / r.Cycles
	return math.Min(1, f)
}

// DynamicOverhead returns injected-instruction execution as a fraction
// of original instructions (Fig. 22).
func (r *Result) DynamicOverhead() float64 {
	if r.Original == 0 {
		return 0
	}
	return float64(r.InjectedExecuted) / float64(r.Original)
}

// Run simulates cfg.MaxInstructions original instructions of p,
// execution-driven from the input's stream.
func Run(p *program.Program, in exec.Input, cfg Config) (*Result, error) {
	ex, err := exec.New(p, in)
	if err != nil {
		return nil, err
	}
	return RunSource(p, ex, cfg)
}

// batchSlab is the step-slab size the consume loop refills through
// exec.Fill. Each refill asks for min(batchSlab, instructions left), so
// a run never pulls steps it will not consume — the source ends in the
// same state a scalar Next loop would leave it in.
const batchSlab = 2048

// RunSource simulates from an arbitrary step source — an executor, a
// trace reader, or a stepcast consumer. The source must yield a stream
// consistent with p. Steps are drained a slab at a time through
// exec.Fill (sources implementing exec.BatchSource skip per-step
// interface dispatch); the slab is owned by the run and reused across
// refills. A source that returns a short refill before the run's
// instruction budget is met — only possible for finite or cancelled
// sources, never the executor or trace reader — is an error.
func RunSource(p *program.Program, src exec.Source, cfg Config) (*Result, error) {
	sim, err := newSimulator(p, src, cfg)
	if err != nil {
		return nil, err
	}
	if err := sim.runTo(cfg.Warmup + cfg.MaxInstructions); err != nil {
		return nil, err
	}
	return sim.finish()
}

// newSimulator validates cfg and builds a simulator positioned at the
// start of the stream, with telemetry attached and the measured phase
// already open when there is no warmup.
func newSimulator(p *program.Program, src exec.Source, cfg Config) (*simulator, error) {
	if cfg.Width <= 0 || cfg.FTQSize <= 0 || cfg.ROBSize <= 0 || cfg.MaxInstructions <= 0 {
		return nil, fmt.Errorf("pipeline: non-positive structural parameter in config")
	}
	scheme := cfg.Scheme
	if scheme == nil {
		scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	}

	var tage *bpu.TAGE
	if cfg.UseTAGE {
		tage = bpu.NewTAGE(bpu.DefaultTAGEConfig())
	}
	sim := &simulator{
		p:      p,
		cfg:    cfg,
		src:    src,
		scheme: scheme,
		tage:   tage,
		dir:    bpu.NewDirectionPredictor(cfg.CondMispredictRate),
		ras:    bpu.NewRAS(cfg.RASEntries),
		ibtb:   bpu.NewIBTB(cfg.IBTBEntries, cfg.IBTBWays),
		hier:   cache.NewHierarchy(cfg.Hierarchy),
		ftq:    make([]float64, cfg.FTQSize),
		rob:    make([]float64, cfg.ROBSize),
		batch:  make([]exec.Step, batchSlab),
	}
	sim.inflight = nextLineFlights(p, cfg.NextLinePrefetch)
	scheme.Attach(sim)
	sim.setupTelemetry()
	sim.lastLine = ^uint64(0)
	sim.pendIssue = -1
	// Warmup: run the machine without counting. At the boundary,
	// accumulated statistics are snapshotted and subtracted afterwards
	// (structures keep their warmed state; only the numbers reset).
	sim.warmed = cfg.Warmup <= 0
	if sim.warmed {
		sim.telBegin()
		sim.armSink()
	}
	return sim, nil
}

// finish closes the run — final invariants, the closing epoch tick,
// telemetry teardown — and assembles the measured window's
// statistics, subtracting whatever accumulated during warmup.
func (sim *simulator) finish() (*Result, error) {
	cfg := &sim.cfg
	if invariantsEnabled {
		sim.invariantFinal()
	}
	sim.res.Cycles = sim.retireC
	// Final partial epoch, so the series always covers the full run.
	if sim.tel != nil && sim.tel.epochLen > 0 {
		if mi := sim.res.Original - cfg.Warmup; mi > sim.tel.lastTick {
			sim.telTick(mi)
		}
	}
	sim.telEnd()
	if t := cfg.Telemetry.Tracer; t != nil {
		if err := t.Flush(); err != nil {
			return nil, fmt.Errorf("pipeline: flushing event trace: %w", err)
		}
	}

	res := sim.res
	w := &sim.warmSnap
	res.Instructions -= w.Instructions
	res.Original -= w.Original
	res.InjectedExecuted -= w.InjectedExecuted
	res.CoveredMisses -= w.CoveredMisses
	res.LateCoveredMisses -= w.LateCoveredMisses
	res.ICacheStallCycles -= w.ICacheStallCycles
	res.BPUWaitCycles -= w.BPUWaitCycles
	res.BTBResteers -= w.BTBResteers
	res.CondMispredicts -= w.CondMispredicts
	res.RASMispredicts -= w.RASMispredicts
	res.IBTBMispredicts -= w.IBTBMispredicts
	res.MissLeadSum -= w.MissLeadSum
	res.Cycles -= sim.warmCycles

	res.BTB = *sim.scheme.Stats()
	for k := range res.BTB.Accesses {
		res.BTB.Accesses[k] -= sim.warmBTB.Accesses[k]
		res.BTB.Misses[k] -= sim.warmBTB.Misses[k]
	}
	pf := sim.scheme.PrefetchStats()
	res.Prefetch = prefetcher.PrefetchStats{
		Issued:    pf.Issued - sim.warmPf.Issued,
		Used:      pf.Used - sim.warmPf.Used,
		Late:      pf.Late - sim.warmPf.Late,
		Redundant: pf.Redundant - sim.warmPf.Redundant,
	}
	res.ICacheAccesses = sim.hier.L1.Accesses - sim.warmL1Acc
	res.ICacheMisses = sim.hier.L1.Misses - sim.warmL1Miss
	res.Series = sim.telSeries()
	return &res, nil
}

// simulator carries the per-run state. It implements
// prefetcher.Frontend for the scheme's callbacks.
type simulator struct {
	p      *program.Program
	cfg    Config
	src    exec.Source
	scheme prefetcher.Scheme
	dir    *bpu.DirectionPredictor
	tage   *bpu.TAGE
	ras    *bpu.RAS
	ibtb   *bpu.IBTB
	hier   *cache.Hierarchy

	bpuC, fetchC, retireC float64

	// ftq is a ring of the fetch completion times of in-flight
	// branches; the BPU stalls on the oldest when full.
	ftq             []float64
	ftqHead, ftqLen int

	// pendIssue, when >= 0, is the time a resteer discovered its
	// redirect target: the fill for the target's line was issued then,
	// overlapping the frontend refill penalty. Consumed by the first
	// new-line access after the resteer.
	pendIssue float64

	// inflight maps prefetched lines to their fill issue/completion
	// times, so a demand access racing a next-line prefetch pays only
	// the remaining latency — and no more than FDIP's own prefetch of
	// the same line (issued at the BPU clock) would have cost, since
	// the MSHR merges requesters and the earliest issue wins. It is
	// indexed by line, not hashed: it is probed for every new line the
	// fetch engine touches (MSHR-style, see DESIGN.md §8).
	inflight flights

	// reso is the scratch Resolution passed to the scheme each branch.
	// It lives on the simulator so the per-branch &reso interface call
	// does not force a heap allocation every instruction.
	reso prefetcher.Resolution

	// rob is a ring of retire completion times; fetch stalls on the
	// oldest when the window is full.
	rob             []float64
	robHead, robLen int

	// batch is the step slab the consume loop drains; batchPos/batchLen
	// delimit the unconsumed remainder. Refilled via exec.Fill, sized so
	// the source is never pulled past the run's instruction budget.
	batch              []exec.Step
	batchPos, batchLen int

	lastLine uint64

	// tel is the run's telemetry state (nil when disabled). sink is the
	// armed event channel: Config.Sink, then the event trace. layout is
	// Config.Sink alone, for the BlockEnter and Taken events the trace
	// does not record, so a traced run skips the per-instruction
	// block-entry test. Both are nil until the warmup boundary, so
	// warmup is never observed.
	tel    *telemetryState
	sink   telemetry.Sink
	layout telemetry.Sink

	res Result

	// warmed is false until the run crosses cfg.Warmup original
	// instructions; the sink and telemetry observe only the warmed
	// window.
	warmed bool

	// Warmup-boundary snapshots, subtracted from the final statistics.
	warmSnap              Result
	warmBTB               btb.Stats
	warmPf                prefetcher.PrefetchStats
	warmL1Acc, warmL1Miss int64
	warmCycles            float64
}

// PrefetchLine implements prefetcher.Frontend: hardware schemes bring
// lines toward L1i. The fill is modeled as instantaneous presence (the
// prefetch latency is hidden by the scheme's own run-ahead); demand
// accesses that race an in-flight prefetch are charged by the
// FDIP-lead rule like any other access.
func (s *simulator) PrefetchLine(line uint64, cycle float64) {
	s.hier.Prefetch(line)
}

// Program implements prefetcher.Frontend.
func (s *simulator) Program() *program.Program { return s.p }

// runTo advances the detailed simulation until total original
// instructions have been consumed since construction (warmup
// included). It is incremental: calling runTo(a) then runTo(b) is
// identical to a single runTo(b), which is what makes checkpointed
// resume and interval sampling exact. A target at or below the
// current position is a no-op.
func (s *simulator) runTo(total int64) error {
	cfg := &s.cfg
	p := s.p
	slot := 1 / cfg.Width

	var clocks clockSnap
	for s.res.Original < total {
		if invariantsEnabled {
			clocks = s.invariantSnap()
		}
		if !s.warmed && s.res.Original >= cfg.Warmup {
			s.warmBoundary()
		}
		if s.batchPos == s.batchLen {
			if err := s.refill(total); err != nil {
				return err
			}
		}
		st := &s.batch[s.batchPos]
		s.batchPos++
		in := &p.Instrs[st.Idx]
		injected := in.ID >= p.OriginalInstrs
		s.res.Instructions++
		if injected {
			s.res.InjectedExecuted++
		} else {
			s.res.Original++
		}

		if s.layout != nil {
			if blk := p.BlockOf[st.Idx]; p.Blocks[blk].First == st.Idx {
				s.layout.BlockEnter(p.Blocks[blk].ID)
			}
		}

		kind := in.Kind
		isBranch := kind.IsBranch()

		// ---- BPU stage -------------------------------------------------
		// The BPU emits one fetch region per cycle, and a region spans
		// up to two fetch groups' worth of sequential instructions —
		// the BPU outruns fetch on straight-line code (predictions need
		// no instruction bytes), which is how FDIP rebuilds run-ahead
		// after a resteer. Each predicted-taken branch ends a region
		// (one redirect per cycle).
		if st.Taken {
			s.bpuC += 1
		} else {
			s.bpuC += slot / 2
		}

		var btbMissTaken bool
		var lookupLate float64
		if isBranch {
			// FTQ occupancy: one entry per fetch region (taken branch).
			// When full, the BPU waits for the oldest region to be
			// consumed by fetch.
			if st.Taken && s.ftqLen == len(s.ftq) {
				if t := s.ftq[s.ftqHead]; t > s.bpuC {
					s.bpuC = t
				}
				if s.ftqHead++; s.ftqHead == len(s.ftq) {
					s.ftqHead = 0
				}
				s.ftqLen--
			}

			res := s.scheme.Lookup(in.PC, kind, s.bpuC, st.Taken)
			if res.FromPrefetch {
				s.res.CoveredMisses++
				if res.LateBy > 0 {
					s.res.LateCoveredMisses++
					lookupLate = res.LateBy
					if s.tel != nil && s.warmed {
						s.tel.pfLate.Observe(res.LateBy)
					}
				}
				if s.sink != nil {
					s.sink.PrefetchUse(s.res.Original-cfg.Warmup, s.bpuC, in.PC, res.LateBy)
				}
			}
			// Only direct-branch misses resteer from decode: returns
			// and indirects are identified at predecode and redirected
			// through the RAS / IBTB, whose own mispredicts pay the
			// execute-time penalty below. This matches the paper's
			// accounting, where only direct branches cause "real BTB
			// misses" (Fig. 3).
			if !res.Hit && st.Taken && kind.IsDirect() {
				btbMissTaken = true
			}
		}

		// ---- Fetch stage -----------------------------------------------
		bpuTime := s.bpuC
		fcost := slot
		if st.Taken {
			// A taken branch ends the fetch group: the fetch engine
			// redirects and issues at most one region per cycle.
			fcost = 1
		}
		fstart := s.fetchC + fcost
		if bpuTime > fstart {
			s.res.BPUWaitCycles += bpuTime - fstart
			fstart = bpuTime
		}
		// ROB backpressure.
		if s.robLen == len(s.rob) {
			if t := s.rob[s.robHead]; t > fstart {
				fstart = t
			}
			if s.robHead++; s.robHead == len(s.rob) {
				s.robHead = 0
			}
			s.robLen--
		}
		// A late prefetched BTB entry stalls the redirect briefly.
		if lookupLate > 0 {
			fstart += lookupLate
			s.res.BPUWaitCycles += lookupLate
		}

		// I-cache: touch the line(s) this instruction occupies.
		first := cache.LineOf(in.PC)
		last := cache.LineOf(in.PC + uint64(in.Size) - 1)
		for line := first; line <= last; line++ {
			if line == s.lastLine {
				continue
			}
			s.lastLine = line
			if cfg.IdealICache {
				s.scheme.OnFetchLine(line, fstart)
				continue
			}
			lat := s.hier.Fetch(line)
			if lat == 0 {
				// Present in L1 — but possibly via a still-in-flight
				// next-line prefetch: pay the remainder, capped by when
				// FDIP's own request (issued at the BPU clock, or at the
				// resteer discovery) would have completed.
				if f, ok := s.inflight.take(line); ok {
					ready := f.ready
					if cfg.FDIP {
						issue := bpuTime
						if s.pendIssue >= 0 && s.pendIssue < issue {
							issue = s.pendIssue
						}
						if alt := issue + (f.ready - f.issue); alt < ready {
							ready = alt
						}
					}
					if ready > fstart {
						s.res.ICacheStallCycles += ready - fstart
						fstart = ready
					}
				}
			}
			if lat > 0 {
				s.scheme.OnLineMiss(line, fstart)
				lead := fstart - bpuTime
				s.res.MissLeadSum += lead
				exposed := lat
				if cfg.FDIP {
					// FDIP issued the prefetch when the BPU enqueued
					// this instruction — or, right after a resteer, when
					// the redirect target was discovered (the fill
					// overlaps the frontend refill) — so only the
					// uncovered remainder stalls fetch.
					issue := bpuTime
					if s.pendIssue >= 0 && s.pendIssue < issue {
						issue = s.pendIssue
					}
					exposed = issue + lat - fstart
				}
				if exposed > 0 {
					s.res.ICacheStallCycles += exposed
					fstart += exposed
				} else {
					exposed = 0
				}
				if s.tel != nil && s.warmed {
					s.tel.missLead.Observe(lead)
				}
				if s.sink != nil {
					s.sink.ICacheMiss(s.res.Original-cfg.Warmup, fstart, line, lead, exposed)
				}
			}
			s.pendIssue = -1
			s.scheme.OnFetchLine(line, fstart)
			if cfg.NextLinePrefetch > 0 && !cfg.IdealICache {
				// Sequential next-line prefetcher: issue fills for the
				// following lines now; a demand access arriving before a
				// fill completes pays only the remainder (inflight). A
				// line already in L1 needs no probe first: Prefetch
				// returns 0 for it and changes nothing.
				for d := 1; d <= cfg.NextLinePrefetch; d++ {
					nl := line + uint64(d)
					if s.inflight.contains(nl) {
						continue
					}
					if plat := s.hier.Prefetch(nl); plat > 0 {
						if s.inflight.count() > 8192 {
							// Prune completed fills that were never
							// demanded, so the tracker's count stays
							// bounded on long runs.
							s.inflight.prune(fstart)
						}
						s.inflight.put(nl, fill{issue: fstart, ready: fstart + plat})
					}
				}
			}
		}
		s.fetchC = fstart

		if st.Taken && s.ftqLen < len(s.ftq) {
			i := s.ftqHead + s.ftqLen
			if i >= len(s.ftq) {
				i -= len(s.ftq)
			}
			s.ftq[i] = s.fetchC
			s.ftqLen++
		}

		// ---- Resolution, training, and resteers --------------------------
		if isBranch {
			execCause := s.resolve(st, in)
			if btbMissTaken {
				s.res.BTBResteers++
				if s.sink != nil {
					mi := s.res.Original - cfg.Warmup
					s.sink.BTBMiss(mi, s.fetchC, st.Idx, in.PC, kind.String())
					s.sink.Resteer(mi, s.fetchC, telemetry.CauseBTBMiss, in.PC)
				}
				s.redirect(cfg.DecodeResteer)
			}
			if execCause != "" {
				if s.sink != nil {
					s.sink.Resteer(s.res.Original-cfg.Warmup, s.fetchC, execCause, in.PC)
				}
				s.redirect(cfg.ExecResteer)
			}

			if st.Taken && s.layout != nil {
				s.layout.Taken(st.Idx, st.NextIdx, s.fetchC)
			}
		}

		// ---- Twig prefetch instructions ----------------------------------
		// Prefetch entries become ready relative to the BPU clock, the
		// same clock domain the demand lookup uses — the frontend can
		// extract the prefetch's operands as soon as its fetch region
		// enters the predecode path, so a site that precedes the miss
		// by the prefetch distance in profile (fetch) time also
		// precedes it at run time regardless of how far the BPU runs
		// ahead. (The paper states the requirement as "retire before
		// the lookup"; this is the equivalent point in our two-clock
		// approximation.)
		switch kind {
		case isa.KindBrPrefetch:
			s.stagePrefetches(in, bpuTime+cfg.BrPrefetchLatency, true)
		case isa.KindBrCoalesce:
			s.stagePrefetches(in, bpuTime+cfg.CoalesceLoadLatency, true)
		}

		// ---- Retire ------------------------------------------------------
		rc := s.retireC + cfg.BackendCPI
		if t := s.fetchC + cfg.BackendDepth; t > rc {
			rc = t
		}
		s.retireC = rc
		if s.robLen < len(s.rob) {
			i := s.robHead + s.robLen
			if i >= len(s.rob) {
				i -= len(s.rob)
			}
			s.rob[i] = rc
			s.robLen++
		}

		// ---- Epoch boundary ----------------------------------------------
		if s.tel != nil && s.warmed && s.tel.epochLen > 0 {
			if mi := s.res.Original - cfg.Warmup; mi >= s.tel.nextTick {
				s.telTick(mi)
				s.tel.nextTick += s.tel.epochLen
			}
		}

		if invariantsEnabled {
			s.invariantStep(clocks, bpuTime)
		}
	}
	return nil
}

// warmBoundary crosses from warmup into the measured window:
// accumulated statistics are snapshotted for later subtraction
// (structures keep their warmed state; only the numbers reset) and the
// measured telemetry phase opens.
func (s *simulator) warmBoundary() {
	s.warmed = true
	s.warmSnap = s.res
	s.warmBTB = *s.scheme.Stats()
	s.warmPf = s.scheme.PrefetchStats()
	s.warmL1Acc, s.warmL1Miss = s.hier.L1.Accesses, s.hier.L1.Misses
	s.warmCycles = s.retireC
	s.telBegin()
	s.armSink()
}

// resolve resolves a branch at execute: it computes the target, trains
// the direction, return-address and indirect-target predictors (their
// state carries across detailed, fast-forwarded and resumed windows
// alike), counts a mispredict, and lets the scheme train on the
// outcome. It returns the mispredict's resteer cause, or "" when the
// branch was predicted correctly.
func (s *simulator) resolve(st *exec.Step, in *program.Instr) (cause string) {
	p := s.p
	var target uint64
	switch in.Kind {
	case isa.KindCondBranch:
		target = p.TargetPC(st.Idx)
		var wrong bool
		if s.tage != nil {
			wrong = !s.tage.PredictAndUpdate(in.PC, st.Taken)
		} else {
			wrong = s.dir.Mispredicted(in.PC)
		}
		if wrong {
			cause = telemetry.CauseCond
			s.res.CondMispredicts++
		}
	case isa.KindJump, isa.KindCall:
		target = p.TargetPC(st.Idx)
	default:
		// Indirect and return targets come from the executed path.
		target = p.Instrs[st.NextIdx].PC
	}
	if in.Kind.IsCallKind() {
		s.ras.Push(in.NextPC())
	}
	switch in.Kind {
	case isa.KindReturn:
		if !s.ras.PredictReturn(target) {
			cause = telemetry.CauseRAS
			s.res.RASMispredicts++
		}
	case isa.KindIndirectJump, isa.KindIndirectCall:
		if !s.ibtb.Predict(in.PC, target) {
			cause = telemetry.CauseIBTB
			s.res.IBTBMispredicts++
		}
	}
	s.reso = prefetcher.Resolution{
		PC: in.PC, Target: target, Kind: in.Kind, Taken: st.Taken, Cycle: s.fetchC,
	}
	s.scheme.Resolve(&s.reso)
	return cause
}

// refill refills the step slab with exactly the original instructions
// still owed toward total: each step adds at most one to res.Original,
// so a slab of (total - Original) steps never outlives the run loop —
// every step pulled is consumed.
func (s *simulator) refill(total int64) error {
	n := exec.Fill(s.src, s.batch[:min(total-s.res.Original, int64(len(s.batch)))])
	if n <= 0 {
		return fmt.Errorf("pipeline: step source ended after %d of %d instructions", s.res.Original, total)
	}
	s.batchPos, s.batchLen = 0, n
	return nil
}

// stagePrefetches inserts the prefetch-buffer entries named by the
// injected brprefetch or brcoalesce instruction in, ready at cycle
// ready. When observe is set, each staged or dropped entry is reported
// to the sink, which is nil (and this inert) during warmup.
func (s *simulator) stagePrefetches(in *program.Instr, ready float64, observe bool) {
	p := s.p
	stage := func(br *program.Instr, target int32) {
		out := s.scheme.InsertPrefetch(br.PC, p.PCOf(target), br.Kind, ready)
		if !observe || s.sink == nil || out == prefetcher.InsertIgnored {
			return
		}
		if mi := s.res.Original - s.cfg.Warmup; out == prefetcher.InsertStaged {
			s.sink.PrefetchIssue(mi, s.bpuC, br.PC, ready)
		} else {
			s.sink.PrefetchDrop(mi, s.bpuC, br.PC)
		}
	}
	if in.Kind == isa.KindBrPrefetch {
		br := p.InstrByID(in.Target)
		stage(br, br.Target)
		return
	}
	mask := p.CoalesceMasks[in.Aux]
	for b := 0; b < 64; b++ {
		if mask&(1<<uint(b)) == 0 {
			continue
		}
		slotIdx := int(in.Target) + b
		if slotIdx >= len(p.CoalesceTable) {
			break
		}
		pair := p.CoalesceTable[slotIdx]
		stage(p.InstrByID(pair.Branch), pair.Target)
	}
}

// redirect resteers the BPU penalty cycles after the branch's fetch:
// the FTQ drains, and the target line's fill issues at the discovery
// point.
func (s *simulator) redirect(penalty float64) {
	if t := s.fetchC + penalty; t > s.bpuC {
		s.bpuC = t
	}
	s.ftqHead, s.ftqLen = 0, 0
	s.pendIssue = s.fetchC
}
