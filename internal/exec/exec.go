// Package exec turns a linked synthetic program into a dynamic
// instruction stream. It is the repository's stand-in for running the
// real application binary: a request-driven interpreter that walks the
// control-flow graph, making branch decisions from a deterministic PRNG
// so the same (program, input) pair always produces the same stream.
//
// The stream is consumed twice per experiment with identical contents:
// once by the profiling run (the paper's production profiling with LBR)
// and once or more by the timing simulator. Injected brprefetch and
// brcoalesce instructions do not consume randomness, so an optimized
// binary executes the exact same program path as its baseline — the
// property that makes speedup comparisons meaningful.
//
// Steps are delivered either one at a time (Source.Next) or a slab at a
// time (BatchSource.NextBatch, via the Fill helper); the two paths
// produce identical streams, so consumers choose purely on dispatch
// cost.
package exec

import (
	"fmt"

	"twig/internal/isa"
	"twig/internal/program"
	"twig/internal/rng"
)

// Input selects an application input configuration: the request mix and
// the seed for branch outcomes. The paper evaluates each application
// with several inputs and trains Twig on input #0 (Fig. 20, Table 2).
type Input struct {
	// Seed drives all run-time randomness (branch outcomes, request
	// choices, indirect-target choices).
	Seed uint64
	// RequestMix gives the relative frequency of each request type. Its
	// length must equal the dispatcher's target-set size. A nil mix is
	// uniform.
	RequestMix []float64
}

// Step is one executed instruction.
type Step struct {
	// Idx is the layout index of the executed instruction.
	Idx int32
	// NextIdx is the layout index of the next instruction.
	NextIdx int32
	// Taken reports whether a branch transferred control (true for all
	// taken transfers: jumps, calls, returns, indirects, taken
	// conditionals).
	Taken bool
}

// Source produces a dynamic instruction stream one step at a time. The
// Executor is the execution-driven source; package trace provides a
// trace-driven one (replaying a recorded stream), mirroring the paper's
// two Scarab modes. Sources that can deliver steps a slab at a time
// additionally implement BatchSource; consumers should pull through
// Fill, which uses the batch path when available.
type Source interface {
	Next(st *Step)
}

// BatchSource is a Source that can also fill a whole slab of steps per
// call, amortizing per-step dispatch. The contract:
//
//   - NextBatch(dst) writes the next steps of the stream into dst and
//     returns how many it wrote. The sequence of steps delivered is
//     exactly the sequence an equivalent series of Next calls would
//     deliver (the differential tests in batch_test.go pin this).
//   - dst is a caller-owned slab, reused across refills; the source
//     must not retain it (or any sub-slice) after returning.
//   - A short count (including 0) means the stream cannot currently
//     make progress — only finite or cancellable sources (e.g. a
//     stepcast consumer after Stop) return short; the Executor and
//     trace.Reader always fill dst completely, matching their
//     fail-soft scalar semantics.
type BatchSource interface {
	Source
	NextBatch(dst []Step) int
}

// Fill fills dst from src — through NextBatch when src implements
// BatchSource, step-by-step Next calls otherwise — and returns the
// number of steps written.
func Fill(src Source, dst []Step) int {
	if bs, ok := src.(BatchSource); ok {
		return bs.NextBatch(dst)
	}
	for i := range dst {
		src.Next(&dst[i])
	}
	return len(dst)
}

// Executor generates the dynamic stream.
type Executor struct {
	p     *program.Program
	rnd   *rng.Rand
	mix   []float64
	stack []int32
	cur   int32
	steps int64
}

// New returns an executor positioned at the program's first function
// (by convention the request dispatcher).
func New(p *program.Program, in Input) (*Executor, error) {
	if len(p.Funcs) == 0 {
		return nil, fmt.Errorf("exec: program has no functions")
	}
	e := &Executor{
		p:     p,
		rnd:   rng.New(in.Seed),
		mix:   in.RequestMix,
		stack: make([]int32, 0, 64),
		cur:   p.Funcs[0].Entry,
	}
	return e, nil
}

// Steps returns the number of instructions executed so far.
func (e *Executor) Steps() int64 { return e.steps }

// Next executes one instruction, filling st. It never returns false —
// synthetic programs run forever (the dispatcher loops) — so callers
// bound execution by step count. It is NextBatch over a one-step slab.
func (e *Executor) Next(st *Step) {
	var one [1]Step
	e.NextBatch(one[:])
	*st = one[0]
}

// NextBatch executes len(dst) instructions, filling dst, and returns
// len(dst), with the interpreter state held in locals across the whole
// slab instead of reloaded per step.
//
// A conditional branch is taken with probability Bias/256. Its coin is
// drawn in integers: rnd.Bool(Bias/256) compares Float64's 53-bit
// fraction (rnd.Uint64()>>11) / 2^53 with Bias/2^8, both exact binary
// fractions, which is (rnd.Uint64()>>11) < Bias<<45; and Bool draws
// nothing when Bias is 0.
func (e *Executor) NextBatch(dst []Step) int {
	p := e.p
	cur := e.cur
	for i := range dst {
		st := &dst[i]
		in := &p.Instrs[cur]
		st.Idx = cur
		st.Taken = false
		next := cur + 1

		switch in.Kind {
		case isa.KindCondBranch:
			if in.Bias != 0 && e.rnd.Uint64()>>11 < uint64(in.Bias)<<45 {
				next = p.IndexOf(in.Target)
				st.Taken = true
			}
		case isa.KindJump:
			next = p.IndexOf(in.Target)
			st.Taken = true
		case isa.KindCall:
			e.stack = append(e.stack, cur+1)
			next = p.IndexOf(in.Target)
			st.Taken = true
		case isa.KindIndirectCall:
			e.stack = append(e.stack, cur+1)
			next = e.pickIndirect(in)
			st.Taken = true
		case isa.KindIndirectJump:
			next = e.pickIndirect(in)
			st.Taken = true
		case isa.KindReturn:
			if n := len(e.stack); n > 0 {
				next = e.stack[n-1]
				e.stack = e.stack[:n-1]
			} else {
				// A return with an empty stack restarts the dispatcher;
				// it only happens if a workload mis-declares its entry
				// function.
				next = p.Funcs[0].Entry
			}
			st.Taken = true
		}

		if int(next) >= len(p.Instrs) {
			// Falling off the end of the text segment restarts the
			// dispatcher. Well-formed workloads never do this.
			next = p.Funcs[0].Entry
		}
		cur = next
		st.NextIdx = next
	}
	e.cur = cur
	e.steps += int64(len(dst))
	return len(dst)
}

func (e *Executor) pickIndirect(in *program.Instr) int32 {
	set := e.p.IndirectSets[in.Aux]
	if in.Flags&program.FlagDispatch != 0 && len(e.mix) == len(set) {
		return e.p.IndexOf(set[e.rnd.WeightedChoice(e.mix)].Target)
	}
	if len(set) == 1 {
		return e.p.IndexOf(set[0].Target)
	}
	// Weighted choice over the site's static target set.
	var total float64
	for _, t := range set {
		total += float64(t.Weight)
	}
	x := e.rnd.Float64() * total
	for i := range set {
		w := float64(set[i].Weight)
		if x < w {
			return e.p.IndexOf(set[i].Target)
		}
		x -= w
	}
	return e.p.IndexOf(set[len(set)-1].Target)
}

// Run executes n instructions, invoking visit for each.
func (e *Executor) Run(n int64, visit func(*Step)) {
	var st Step
	for i := int64(0); i < n; i++ {
		e.Next(&st)
		visit(&st)
	}
}
