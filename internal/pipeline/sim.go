// Sim is the incremental simulation API underlying checkpointed and
// sampled runs. RunSource is the one-shot convenience wrapper; Sim
// exposes the same machine stepwise:
//
//	sim, _ := NewSim(p, src, cfg)
//	sim.RunTo(n)       // detailed simulation up to n original instructions
//	data, _ := sim.Checkpoint()
//	...
//	sim2, _ := ResumeSim(p, src2, cfg, data)
//	sim2.RunTo(m)      // byte-identical to an uninterrupted RunTo(m)
//	res, _ := sim2.Finish()
//
// Because runTo consumes the step stream a slab at a time and every
// refill asks for exactly the original instructions still owed, the
// slab is always empty at a RunTo boundary: the step source's own
// state (the executor's PRNG cursor) is the sole stream position, and
// a checkpoint needs no partially-consumed batch. Resuming therefore
// replays the identical instruction sequence, and since every
// structure (BTB, predictors, caches, rings, clocks, counters)
// round-trips exactly, the resumed run is bit-identical to a
// continuous one — pinned by TestResumeEqualsContinuous.
package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"twig/internal/cache"
	"twig/internal/checkpoint"
	"twig/internal/exec"
	"twig/internal/isa"
	"twig/internal/program"
)

// secSim tags the simulator-core checkpoint section ("SIM0").
const secSim = 0x53494d30

// Sim is an incrementally-steppable simulation. Not safe for
// concurrent use.
type Sim struct {
	s *simulator
}

// NewSim builds a simulation positioned at the start of the stream.
// The configuration contract is RunSource's; cfg.Warmup and
// cfg.MaxInstructions retain their meanings (Finish subtracts the
// warmup window), but progress is driven by explicit RunTo /
// FastForward calls rather than a single internal loop.
func NewSim(p *program.Program, src exec.Source, cfg Config) (*Sim, error) {
	s, err := newSimulator(p, src, cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{s: s}, nil
}

// Instructions returns the number of original instructions consumed so
// far (warmup included).
func (m *Sim) Instructions() int64 { return m.s.res.Original }

// RunTo advances detailed simulation until total original instructions
// have been consumed since construction. Incremental calls compose
// exactly: RunTo(a) then RunTo(b) is bit-identical to RunTo(b).
func (m *Sim) RunTo(total int64) error { return m.s.runTo(total) }

// Finish closes the run and assembles the Result exactly as RunSource
// would. The Sim must not be used afterwards.
func (m *Sim) Finish() (*Result, error) { return m.s.finish() }

// Counters is a cheap snapshot of the accumulators interval sampling
// differences across a measured window.
type Counters struct {
	Instructions  int64   // original instructions consumed
	Cycles        float64 // retire clock
	DirectMisses  int64   // direct-branch demand BTB misses (MPKI numerator)
	CoveredMisses int64   // demand misses served by a prefetched entry
	L1Misses      int64   // demand L1i misses
}

// Counters snapshots the sampling-relevant accumulators.
func (m *Sim) Counters() Counters {
	s := m.s
	return Counters{
		Instructions:  s.res.Original,
		Cycles:        s.retireC,
		DirectMisses:  s.scheme.Stats().DirectMisses(),
		CoveredMisses: s.res.CoveredMisses,
		L1Misses:      s.hier.L1.Misses,
	}
}

// FastForward advances the simulation functionally until total
// original instructions have been consumed: every structure that holds
// history — BTB and prefetch-buffer contents, direction/RAS/IBTB/TAGE
// predictor state, cache tags, the scheme's training context, the
// stream position — is updated exactly as detailed simulation would
// update it, but the three clocks are frozen and no timing (stall
// cycles, FTQ/ROB occupancy, resteer penalties) is modeled. This is
// the functional warmup between sampled intervals: orders of magnitude
// cheaper per instruction, leaving the machine warm for the next
// detailed interval. The sink and telemetry never observe
// fast-forwarded instructions; FastForward refuses to run with telemetry enabled
// because the epoch series cannot span unmeasured gaps.
func (m *Sim) FastForward(total int64) error {
	if m.s.cfg.Telemetry.enabled() {
		return fmt.Errorf("pipeline: fast-forward with telemetry enabled")
	}
	return m.s.fastForward(total)
}

func (s *simulator) fastForward(total int64) error {
	cfg := &s.cfg
	p := s.p
	for s.res.Original < total {
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

		kind := in.Kind
		isBranch := kind.IsBranch()
		var btbMissTaken bool
		if isBranch {
			res := s.scheme.Lookup(in.PC, kind, s.bpuC, st.Taken)
			if res.FromPrefetch {
				s.res.CoveredMisses++
				if res.LateBy > 0 {
					s.res.LateCoveredMisses++
				}
			}
			if !res.Hit && st.Taken && kind.IsDirect() {
				btbMissTaken = true
			}
		}

		// Touch the instruction's cache line(s) so tag state, the
		// next-line prefetcher's fill pattern, and the scheme's
		// line-level training all stay warm. Fill latency is ignored
		// and in-flight fills are not tracked: there is no demand
		// timing to charge them against.
		first := cache.LineOf(in.PC)
		last := cache.LineOf(in.PC + uint64(in.Size) - 1)
		for line := first; line <= last; line++ {
			if line == s.lastLine {
				continue
			}
			s.lastLine = line
			if cfg.IdealICache {
				s.scheme.OnFetchLine(line, s.fetchC)
				continue
			}
			if lat := s.hier.Fetch(line); lat > 0 {
				s.scheme.OnLineMiss(line, s.fetchC)
			}
			s.scheme.OnFetchLine(line, s.fetchC)
			for d := 1; d <= cfg.NextLinePrefetch; d++ {
				s.hier.Prefetch(line + uint64(d))
			}
		}

		if isBranch {
			s.resolve(st, in) // predictor cursors feed the next detailed interval

			if btbMissTaken {
				s.res.BTBResteers++
			}
		}

		// Injected Twig instructions keep inserting into the prefetch
		// buffer (at the frozen clock, so entries are immediately ready —
		// prefetch timeliness is a detailed-interval concern).
		if kind == isa.KindBrPrefetch || kind == isa.KindBrCoalesce {
			s.stagePrefetches(in, s.bpuC, false)
		}
	}
	return nil
}

// fingerprint digests everything a checkpoint cannot carry but resume
// correctness depends on: the structural configuration (its Canonical
// rendering; the scheme, sink and telemetry are reattached by the
// caller) and the program's shape. A checkpoint restored under a
// different fingerprint is rejected before any section is decoded.
func (s *simulator) fingerprint() uint64 {
	h := sha256.New()
	fmt.Fprintf(h, "cfg{%s}\x00scheme=%s\x00instrs=%d\x00original=%d\x00blocks=%d",
		s.cfg.Canonical(), s.scheme.Name(), len(s.p.Instrs), s.p.OriginalInstrs, len(s.p.Blocks))
	return binary.LittleEndian.Uint64(h.Sum(nil))
}

// Checkpoint serializes the complete simulation state — step-source
// cursor, scheme, predictors, caches, rings, clocks and counters —
// into a self-validating envelope. It must be called at a RunTo /
// FastForward boundary (always true between calls; the step slab is
// provably empty there). Runs with telemetry enabled cannot be
// checkpointed: registry gauges and open trace streams are external
// resources a resumed process could not reconstruct.
func (m *Sim) Checkpoint() ([]byte, error) {
	s := m.s
	if s.cfg.Telemetry.enabled() {
		return nil, fmt.Errorf("pipeline: checkpoint with telemetry enabled")
	}
	if s.batchPos != s.batchLen {
		return nil, fmt.Errorf("pipeline: checkpoint mid-slab (%d steps unconsumed)", s.batchLen-s.batchPos)
	}
	srcState, ok := s.src.(checkpoint.State)
	if !ok {
		return nil, fmt.Errorf("pipeline: step source %T does not support checkpointing", s.src)
	}
	schemeState, ok := s.scheme.(checkpoint.State)
	if !ok {
		return nil, fmt.Errorf("pipeline: scheme %q does not support checkpointing", s.scheme.Name())
	}

	w := checkpoint.NewWriter()
	w.Section(secSim)
	w.U64(s.fingerprint())
	if err := srcState.SaveState(w); err != nil {
		return nil, err
	}
	if err := schemeState.SaveState(w); err != nil {
		return nil, err
	}
	if err := s.dir.SaveState(w); err != nil {
		return nil, err
	}
	w.Bool(s.tage != nil)
	if s.tage != nil {
		if err := s.tage.SaveState(w); err != nil {
			return nil, err
		}
	}
	if err := s.ras.SaveState(w); err != nil {
		return nil, err
	}
	if err := s.ibtb.SaveState(w); err != nil {
		return nil, err
	}
	if err := s.hier.SaveState(w); err != nil {
		return nil, err
	}

	// Simulator core: clocks, rings, in-flight fills, result counters.
	w.F64(s.bpuC)
	w.F64(s.fetchC)
	w.F64(s.retireC)
	w.F64s(s.ftq)
	w.Int(s.ftqHead)
	w.Int(s.ftqLen)
	w.F64(s.pendIssue)
	w.F64s(s.rob)
	w.Int(s.robHead)
	w.Int(s.robLen)
	w.U64(s.lastLine)
	w.Bool(s.warmed)
	saveResult(w, &s.res)
	saveResult(w, &s.warmSnap)
	if err := s.warmBTB.SaveState(w); err != nil {
		return nil, err
	}
	w.I64(s.warmPf.Issued)
	w.I64(s.warmPf.Used)
	w.I64(s.warmPf.Late)
	w.I64(s.warmPf.Redundant)
	w.I64(s.warmL1Acc)
	w.I64(s.warmL1Miss)
	w.F64(s.warmCycles)
	s.inflight.save(w)
	return w.Finish(), nil
}

// saveResult writes the numeric accumulators of a Result in fixed
// order. BTB/Prefetch/ICache aggregates and Series are assembled by
// finish, never live during a run, so they are not part of the state.
func saveResult(w *checkpoint.Writer, r *Result) {
	w.I64(r.Instructions)
	w.I64(r.Original)
	w.I64(r.InjectedExecuted)
	w.F64(r.Cycles)
	w.I64(r.CoveredMisses)
	w.I64(r.LateCoveredMisses)
	w.I64(r.ICacheAccesses)
	w.I64(r.ICacheMisses)
	w.F64(r.ICacheStallCycles)
	w.F64(r.BPUWaitCycles)
	w.I64(r.BTBResteers)
	w.I64(r.CondMispredicts)
	w.I64(r.RASMispredicts)
	w.I64(r.IBTBMispredicts)
	w.F64(r.MissLeadSum)
}

func restoreResult(r *checkpoint.Reader, res *Result) {
	res.Instructions = r.I64()
	res.Original = r.I64()
	res.InjectedExecuted = r.I64()
	res.Cycles = r.F64()
	res.CoveredMisses = r.I64()
	res.LateCoveredMisses = r.I64()
	res.ICacheAccesses = r.I64()
	res.ICacheMisses = r.I64()
	res.ICacheStallCycles = r.F64()
	res.BPUWaitCycles = r.F64()
	res.BTBResteers = r.I64()
	res.CondMispredicts = r.I64()
	res.RASMispredicts = r.I64()
	res.IBTBMispredicts = r.I64()
	res.MissLeadSum = r.F64()
}

// ResumeSim reconstructs a simulation from a checkpoint taken with the
// same program, source kind and configuration. src must be a fresh
// source of the same stream (its cursor is restored from the
// checkpoint). A sink may be attached via cfg: it observes the
// instructions simulated after the resume point, which — because the
// simulated event sequence is bit-identical — is exactly the
// continuous run's event stream from that point on.
func ResumeSim(p *program.Program, src exec.Source, cfg Config, data []byte) (*Sim, error) {
	if cfg.Telemetry.enabled() {
		return nil, fmt.Errorf("pipeline: resume with telemetry enabled")
	}
	s, err := newSimulator(p, src, cfg)
	if err != nil {
		return nil, err
	}
	srcState, ok := s.src.(checkpoint.State)
	if !ok {
		return nil, fmt.Errorf("pipeline: step source %T does not support checkpointing", s.src)
	}
	schemeState, ok := s.scheme.(checkpoint.State)
	if !ok {
		return nil, fmt.Errorf("pipeline: scheme %q does not support checkpointing", s.scheme.Name())
	}

	r, err := checkpoint.Open(data)
	if err != nil {
		return nil, err
	}
	r.Section(secSim)
	fp := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if fp != s.fingerprint() {
		return nil, fmt.Errorf("pipeline: checkpoint was taken with a different configuration or program")
	}
	if err := srcState.RestoreState(r); err != nil {
		return nil, err
	}
	if err := schemeState.RestoreState(r); err != nil {
		return nil, err
	}
	if err := s.dir.RestoreState(r); err != nil {
		return nil, err
	}
	hasTAGE := r.Bool()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if hasTAGE != (s.tage != nil) {
		return nil, fmt.Errorf("pipeline: checkpoint TAGE presence does not match configuration")
	}
	if s.tage != nil {
		if err := s.tage.RestoreState(r); err != nil {
			return nil, err
		}
	}
	if err := s.ras.RestoreState(r); err != nil {
		return nil, err
	}
	if err := s.ibtb.RestoreState(r); err != nil {
		return nil, err
	}
	if err := s.hier.RestoreState(r); err != nil {
		return nil, err
	}

	s.bpuC = r.F64()
	s.fetchC = r.F64()
	s.retireC = r.F64()
	r.F64sInto(s.ftq)
	ftqHead := r.Int()
	ftqLen := r.Int()
	s.pendIssue = r.F64()
	r.F64sInto(s.rob)
	robHead := r.Int()
	robLen := r.Int()
	s.lastLine = r.U64()
	warmed := r.Bool()
	restoreResult(r, &s.res)
	restoreResult(r, &s.warmSnap)
	if err := s.warmBTB.RestoreState(r); err != nil {
		return nil, err
	}
	s.warmPf.Issued = r.I64()
	s.warmPf.Used = r.I64()
	s.warmPf.Late = r.I64()
	s.warmPf.Redundant = r.I64()
	s.warmL1Acc = r.I64()
	s.warmL1Miss = r.I64()
	s.warmCycles = r.F64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ftqHead < 0 || ftqHead >= len(s.ftq) || ftqLen < 0 || ftqLen > len(s.ftq) {
		return nil, fmt.Errorf("pipeline: checkpoint FTQ cursor out of range")
	}
	if robHead < 0 || robHead >= len(s.rob) || robLen < 0 || robLen > len(s.rob) {
		return nil, fmt.Errorf("pipeline: checkpoint ROB cursor out of range")
	}
	s.ftqHead, s.ftqLen = ftqHead, ftqLen
	s.robHead, s.robLen = robHead, robLen
	s.warmed = warmed
	if warmed {
		s.armSink()
	}
	if err := s.inflight.restore(r); err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return &Sim{s: s}, nil
}
