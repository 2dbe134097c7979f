package main

import (
	"fmt"
	"time"

	"twig/internal/btb"
	"twig/internal/cache"
	"twig/internal/exec"
	"twig/internal/isa"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
	"twig/internal/program"
)

// Layers the pipeline calls about once per instruction get no per-call
// spans, which would distort the loop. Instead a run records every call
// the pipeline makes into its prefetcher.Scheme (and every line the
// scheme prefetches through the Frontend) on a tape, and the tape is
// replayed against a fresh scheme and a fresh cache.Hierarchy, timed
// in isolation. A replay counts only when it reproduces the run.

type evKind uint8

const (
	evLookup evKind = iota
	evResolve
	evFetchLine
	evLineMiss
	evInsert
	evProbe
	// evPrefetchLine is a line the scheme sent toward L1i.
	evPrefetchLine
	// evStats marks a read of the scheme's counters: the pipeline reads
	// them at the warm-up boundary and when the run ends.
	evStats
)

// event is one tape entry: the call's arguments and what it returned.
type event struct {
	pc, target  uint64
	cycle, late float64
	kind        evKind
	br          isa.Kind
	taken       bool
	hit, fromPf bool
	outcome     prefetcher.InsertOutcome
}

// tapeScheme forwards every call to the scheme under test and records
// it. Each call is recorded before it is forwarded and its results are
// filled in afterwards, so the lines a call prefetches follow it on the
// tape.
type tapeScheme struct {
	inner prefetcher.Scheme
	tape  []event
}

// Name implements prefetcher.Scheme.
func (t *tapeScheme) Name() string { return t.inner.Name() }

// Attach implements prefetcher.Scheme, handing the scheme a recording
// frontend.
func (t *tapeScheme) Attach(fe prefetcher.Frontend) { t.inner.Attach(tapeFrontend{fe, t}) }

// Lookup implements prefetcher.Scheme.
func (t *tapeScheme) Lookup(pc uint64, kind isa.Kind, cycle float64, taken bool) prefetcher.LookupResult {
	i := t.record(event{kind: evLookup, pc: pc, br: kind, cycle: cycle, taken: taken})
	r := t.inner.Lookup(pc, kind, cycle, taken)
	e := &t.tape[i]
	e.hit, e.fromPf, e.late = r.Hit, r.FromPrefetch, r.LateBy
	return r
}

func (t *tapeScheme) record(e event) int {
	t.tape = append(t.tape, e)
	return len(t.tape) - 1
}

// Resolve implements prefetcher.Scheme.
func (t *tapeScheme) Resolve(r *prefetcher.Resolution) {
	t.record(event{kind: evResolve, pc: r.PC, target: r.Target, br: r.Kind, taken: r.Taken, cycle: r.Cycle})
	t.inner.Resolve(r)
}

// OnFetchLine implements prefetcher.Scheme.
func (t *tapeScheme) OnFetchLine(line uint64, cycle float64) {
	t.record(event{kind: evFetchLine, pc: line, cycle: cycle})
	t.inner.OnFetchLine(line, cycle)
}

// OnLineMiss implements prefetcher.Scheme.
func (t *tapeScheme) OnLineMiss(line uint64, cycle float64) {
	t.record(event{kind: evLineMiss, pc: line, cycle: cycle})
	t.inner.OnLineMiss(line, cycle)
}

// InsertPrefetch implements prefetcher.Scheme.
func (t *tapeScheme) InsertPrefetch(pc, target uint64, kind isa.Kind, ready float64) prefetcher.InsertOutcome {
	i := t.record(event{kind: evInsert, pc: pc, target: target, br: kind, cycle: ready})
	out := t.inner.InsertPrefetch(pc, target, kind, ready)
	t.tape[i].outcome = out
	return out
}

// ProbeDemand implements prefetcher.Scheme.
func (t *tapeScheme) ProbeDemand(pc uint64) bool {
	i := t.record(event{kind: evProbe, pc: pc})
	ok := t.inner.ProbeDemand(pc)
	t.tape[i].hit = ok
	return ok
}

// Stats implements prefetcher.Scheme.
func (t *tapeScheme) Stats() *btb.Stats {
	t.record(event{kind: evStats})
	return t.inner.Stats()
}

// PrefetchStats implements prefetcher.Scheme.
func (t *tapeScheme) PrefetchStats() prefetcher.PrefetchStats { return t.inner.PrefetchStats() }

// tapeFrontend records the lines a scheme prefetches.
type tapeFrontend struct {
	fe prefetcher.Frontend
	t  *tapeScheme
}

// PrefetchLine implements prefetcher.Frontend.
func (f tapeFrontend) PrefetchLine(line uint64, cycle float64) {
	f.t.tape = append(f.t.tape, event{kind: evPrefetchLine, pc: line, cycle: cycle})
	f.fe.PrefetchLine(line, cycle)
}

// Program implements prefetcher.Frontend.
func (f tapeFrontend) Program() *program.Program { return f.fe.Program() }

// replayFrontend serves a replayed scheme: prefetched lines go nowhere
// (the cache replay takes them from the tape).
type replayFrontend struct{ p *program.Program }

// PrefetchLine implements prefetcher.Frontend.
func (replayFrontend) PrefetchLine(uint64, float64) {}

// Program implements prefetcher.Frontend.
func (f replayFrontend) Program() *program.Program { return f.p }

// recordTape runs cfg with its scheme wrapped and returns the result
// and the tape.
func recordTape(prog *program.Program, in exec.Input, cfg pipeline.Config) (*pipeline.Result, *tapeScheme, error) {
	ts := &tapeScheme{inner: cfg.Scheme}
	cfg.Scheme = ts
	res, err := pipeline.Run(prog, in, cfg)
	return res, ts, err
}

// schemeReplay is a timed replay of a tape against a fresh scheme.
type schemeReplay struct {
	Calls   int
	Elapsed time.Duration
}

// replayScheme replays the tape into fresh and checks that every call
// returns what it returned in the run, and that the counters at the
// warm-up boundary and at the end give the run's BTB statistics.
func replayScheme(tape []event, fresh prefetcher.Scheme, prog *program.Program, res *pipeline.Result) (schemeReplay, error) {
	fresh.Attach(replayFrontend{prog})
	var (
		reso  prefetcher.Resolution
		bad   = -1
		marks []btb.Stats
		calls int
	)
	start := time.Now()
	for i := range tape {
		e := &tape[i]
		switch e.kind {
		case evLookup:
			r := fresh.Lookup(e.pc, e.br, e.cycle, e.taken)
			if r.Hit != e.hit || r.FromPrefetch != e.fromPf || r.LateBy != e.late {
				bad = i
			}
		case evResolve:
			reso = prefetcher.Resolution{PC: e.pc, Target: e.target, Kind: e.br, Taken: e.taken, Cycle: e.cycle}
			fresh.Resolve(&reso)
		case evFetchLine:
			fresh.OnFetchLine(e.pc, e.cycle)
		case evLineMiss:
			fresh.OnLineMiss(e.pc, e.cycle)
		case evInsert:
			if fresh.InsertPrefetch(e.pc, e.target, e.br, e.cycle) != e.outcome {
				bad = i
			}
		case evProbe:
			if fresh.ProbeDemand(e.pc) != e.hit {
				bad = i
			}
		case evStats:
			marks = append(marks, *fresh.Stats())
			continue
		default:
			continue
		}
		calls++
	}
	elapsed := time.Since(start)
	if bad >= 0 {
		return schemeReplay{}, fmt.Errorf("replayed call %d returned a different result", bad)
	}
	var window btb.Stats
	switch len(marks) {
	case 1: // no warm-up: the only read is at the end
		window = marks[0]
	case 2:
		for k := range window.Accesses {
			window.Accesses[k] = marks[1].Accesses[k] - marks[0].Accesses[k]
			window.Misses[k] = marks[1].Misses[k] - marks[0].Misses[k]
		}
	default:
		return schemeReplay{}, fmt.Errorf("tape has %d counter reads, want the warm-up boundary and the end", len(marks))
	}
	if window != res.BTB {
		return schemeReplay{}, fmt.Errorf("replayed BTB counters %v, run %v", window, res.BTB)
	}
	return schemeReplay{Calls: calls, Elapsed: elapsed}, nil
}

// cacheOp is one call into the cache hierarchy.
type cacheOp struct {
	line uint64
	op   uint8
}

const (
	opFetch uint8 = iota
	opProbe
	opPrefetch
	// opMark is the warm-up boundary; it costs nothing.
	opMark
)

// cacheOps turns a tape into the exact sequence of hierarchy calls the
// run made. A line reaches the scheme as a miss or a fetch right after
// its demand fetch; the sequential next-line prefetcher runs after the
// fetch call returns, so it is due at the first later entry that is not
// a line the scheme prefetched during that call. The walk keeps a live
// hierarchy and the pipeline's in-flight table, because the next-line
// prefetcher's decisions depend on fill latencies, and checks every
// demand fetch's hit or miss against the tape.
func cacheOps(tape []event, cfg pipeline.Config) ([]cacheOp, error) {
	h := cache.NewHierarchy(cfg.Hierarchy)
	inflight := map[uint64]float64{} // line -> fill ready cycle
	ops := make([]cacheOp, 0, len(tape))
	reads := 0
	for i := range tape {
		if tape[i].kind == evStats {
			reads++
		}
	}
	missed := ^uint64(0)
	var due *event // fetched line whose next-line prefetch is pending
	nextLine := func() {
		if due == nil {
			return
		}
		for d := 1; d <= cfg.NextLinePrefetch; d++ {
			nl := due.pc + uint64(d)
			ops = append(ops, cacheOp{line: nl, op: opProbe})
			if h.L1.Probe(nl) {
				continue
			}
			if _, ok := inflight[nl]; ok {
				continue
			}
			ops = append(ops, cacheOp{line: nl, op: opPrefetch})
			if plat := h.Prefetch(nl); plat > 0 {
				if len(inflight) > 8192 {
					for l, ready := range inflight {
						if ready < due.cycle {
							delete(inflight, l)
						}
					}
				}
				inflight[nl] = due.cycle + plat
			}
		}
		due = nil
	}
	for i := range tape {
		e := &tape[i]
		if e.kind == evPrefetchLine {
			ops = append(ops, cacheOp{line: e.pc, op: opPrefetch})
			h.Prefetch(e.pc)
			continue
		}
		nextLine()
		switch e.kind {
		case evStats:
			// With warm-up there are two reads; the first is the
			// boundary the run's statistics start from.
			if reads == 2 {
				ops = append(ops, cacheOp{op: opMark})
				reads = 0
			}
		case evLineMiss:
			ops = append(ops, cacheOp{line: e.pc, op: opFetch})
			if h.Fetch(e.pc) == 0 {
				return nil, fmt.Errorf("line %#x missed in the run but hits in replay", e.pc)
			}
			missed = e.pc
		case evFetchLine:
			if missed != e.pc {
				ops = append(ops, cacheOp{line: e.pc, op: opFetch})
				if h.Fetch(e.pc) != 0 {
					return nil, fmt.Errorf("line %#x hit in the run but misses in replay", e.pc)
				}
				delete(inflight, e.pc)
			}
			missed = ^uint64(0)
			if cfg.NextLinePrefetch > 0 && !cfg.IdealICache {
				due = e
			}
		}
	}
	nextLine()
	return ops, nil
}

// cacheReplay is a timed replay of hierarchy calls.
type cacheReplay struct {
	Accesses int
	Elapsed  time.Duration
}

// replayCache replays ops into a fresh hierarchy and checks the L1i
// demand counters of the measured window against the run's.
func replayCache(ops []cacheOp, cfg pipeline.Config, res *pipeline.Result) (cacheReplay, error) {
	h := cache.NewHierarchy(cfg.Hierarchy)
	var warmAcc, warmMiss int64
	n := 0
	start := time.Now()
	for _, o := range ops {
		switch o.op {
		case opFetch:
			h.Fetch(o.line)
		case opProbe:
			h.L1.Probe(o.line)
		case opPrefetch:
			h.Prefetch(o.line)
		case opMark:
			warmAcc, warmMiss = h.L1.Accesses, h.L1.Misses
			continue
		}
		n++
	}
	elapsed := time.Since(start)
	acc, miss := h.L1.Accesses-warmAcc, h.L1.Misses-warmMiss
	if acc != res.ICacheAccesses || miss != res.ICacheMisses {
		return cacheReplay{}, fmt.Errorf("replayed L1i %d accesses / %d misses, run %d / %d",
			acc, miss, res.ICacheAccesses, res.ICacheMisses)
	}
	return cacheReplay{Accesses: n, Elapsed: elapsed}, nil
}

// timedSource times the executor's batch refills, the exec layer's
// share of a run.
type timedSource struct {
	src   exec.BatchSource
	busy  time.Duration
	steps int64
}

// Next implements exec.Source.
func (t *timedSource) Next(st *exec.Step) { t.src.Next(st) }

// NextBatch implements exec.BatchSource, timing the refill.
func (t *timedSource) NextBatch(dst []exec.Step) int {
	start := time.Now()
	n := t.src.NextBatch(dst)
	t.busy += time.Since(start)
	t.steps += int64(n)
	return n
}
