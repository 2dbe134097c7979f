// Package program models a synthetic application binary: a flat list of
// variable-length instructions grouped into basic blocks and functions,
// with a linker that assigns addresses and a relinker that injects
// Twig's BTB-prefetch instructions and lays out the coalesce key-value
// table in the text segment.
//
// Two identities exist for every instruction:
//
//   - its stable ID, assigned at first link and never changed — profiles
//     and analysis results reference IDs so they survive re-layout;
//   - its layout index, the position in Instrs after the most recent
//     (re)link — the execution engine and simulator operate on indexes
//     and addresses.
//
// This mirrors how the real Twig operates on a binary: profile data is
// collected on the unmodified binary, analysis picks injection sites,
// and the link step rewrites the text segment, shifting addresses.
package program

import (
	"fmt"

	"twig/internal/isa"
)

// NoTarget marks the absence of a direct target / auxiliary reference.
const NoTarget = int32(-1)

// Instruction flags.
const (
	// FlagLoopBack marks a conditional branch that is a loop back-edge;
	// the execution engine treats its bias as a loop-continuation
	// probability (geometric trip counts).
	FlagLoopBack uint8 = 1 << iota
	// FlagDispatch marks the indirect call at the top-level request
	// dispatcher; the execution engine steers it by the input's request
	// mix rather than the generic indirect-target weights.
	FlagDispatch
)

// Instr is one synthetic instruction. The struct is kept small (hot
// arrays of millions of these exist for the largest workloads).
type Instr struct {
	// PC is the instruction's current virtual address (set by Link).
	PC uint64
	// ID is the stable identity (see package comment).
	ID int32
	// Target holds, depending on Kind:
	//   cond/jump/call:   stable ID of the direct target instruction
	//   indirect:         NoTarget (targets come from TargetSet via Aux)
	//   brprefetch:       stable ID of the branch being prefetched
	//   brcoalesce:       base slot index into the coalesce table
	//   otherwise:        NoTarget
	Target int32
	// Aux holds, depending on Kind:
	//   indirect:    index into Program.IndirectSets
	//   brcoalesce:  index into Program.CoalesceMasks
	//   otherwise:   NoTarget
	Aux int32
	// Size is the encoded size in bytes (2-8).
	Size uint8
	// Kind classifies the instruction.
	Kind isa.Kind
	// Bias is, for conditional branches, the taken probability in
	// 1/256 units (0 => never taken, 255 => ~always). For loop
	// back-edges it is the continuation probability.
	Bias uint8
	// Flags is a bitset of Flag* values.
	Flags uint8
}

// NextPC returns the fall-through address.
func (in *Instr) NextPC() uint64 { return in.PC + uint64(in.Size) }

// Block is a builder-granularity basic block: a contiguous run of
// instructions. Control flow may only enter at First and leaves either
// through the terminating branch or by falling through past Last.
// Blocks are the unit the LBR-style profiler records and the unit Twig
// picks as prefetch injection sites.
type Block struct {
	// First and Last are layout indexes into Program.Instrs (inclusive).
	First, Last int32
	// Func is the index of the owning function.
	Func int32
	// ID is the stable block identity: the block's index at first
	// link. Relinking never creates or destroys blocks and Inject keeps
	// their order, but ReorderFunctions moves them, so in a reordered
	// program Blocks[i].ID need not equal i. Profiles and injection
	// plans name blocks by ID.
	ID int32
}

// Func is a generated function.
type Func struct {
	// FirstBlock and LastBlock are block indexes (inclusive).
	FirstBlock, LastBlock int32
	// Entry is the layout index of the function's first instruction.
	Entry int32
}

// WeightedTarget is one possible destination of an indirect branch.
type WeightedTarget struct {
	// Target is the stable ID of the destination instruction.
	Target int32
	// Weight is the relative selection probability.
	Weight float32
}

// CoalescePair is one (branch, target) key-value entry of the sorted
// prefetch table the brcoalesce instruction reads (§3.2 of the paper).
// Entries are stored by stable ID and sorted by branch PC at link time.
type CoalescePair struct {
	Branch int32 // stable ID of the branch instruction
	Target int32 // stable ID of the branch's taken target
}

// Program is a linked synthetic binary.
type Program struct {
	// Instrs is the text segment in layout order, PCs strictly
	// increasing.
	Instrs []Instr
	// Blocks lists basic blocks in layout order.
	Blocks []Block
	// BlockOf maps a layout index to its block index.
	BlockOf []int32
	// Funcs lists functions in layout order.
	Funcs []Func
	// IndirectSets holds the possible targets of each indirect branch
	// site, indexed by Instr.Aux.
	IndirectSets [][]WeightedTarget
	// CoalesceTable is Twig's sorted key-value prefetch table (empty in
	// unoptimized binaries). It lives in the text segment after the last
	// instruction and contributes to TextBytes.
	CoalesceTable []CoalescePair
	// CoalesceMasks holds the bitmask operand of each brcoalesce
	// instruction, indexed by Instr.Aux. Masks are up to 64 bits wide to
	// support the paper's Fig. 27 sensitivity sweep.
	CoalesceMasks []uint64
	// BaseAddr is the address of the first instruction.
	BaseAddr uint64
	// TextBytes is the total text-segment size: instructions plus the
	// coalesce table.
	TextBytes uint64
	// OriginalInstrs is the number of instructions that existed at first
	// link; injected instructions have IDs >= OriginalInstrs. Speedup
	// accounting divides original instructions (not injected ones) by
	// cycles.
	OriginalInstrs int32

	// idToIdx maps stable IDs to layout indexes.
	idToIdx []int32
	// branchIdxs lists the layout indexes of the direct branches, in
	// layout order. lineStart indexes it by cache line for predecoders
	// (Shotgun, Confluence, Shadow) that need "all branches in this
	// line": the branches of line firstLine+l are
	// branchIdxs[lineStart[l]:lineStart[l+1]] (a CSR layout, one
	// offset per line of the text plus a closing one).
	branchIdxs []int32
	lineStart  []int32
	firstLine  uint64
}

// IndexOf returns the current layout index for a stable ID.
func (p *Program) IndexOf(id int32) int32 {
	if id < 0 || int(id) >= len(p.idToIdx) {
		return NoTarget
	}
	return p.idToIdx[id]
}

// InstrByID returns the instruction with the given stable ID.
func (p *Program) InstrByID(id int32) *Instr {
	return &p.Instrs[p.IndexOf(id)]
}

// PCOf returns the current address of the instruction with stable ID id.
func (p *Program) PCOf(id int32) uint64 {
	return p.Instrs[p.IndexOf(id)].PC
}

// TargetPC returns the taken-target address of a direct branch at layout
// index idx. It panics if the instruction has no direct target.
func (p *Program) TargetPC(idx int32) uint64 {
	in := &p.Instrs[idx]
	if in.Target == NoTarget {
		panic(fmt.Sprintf("program: instruction %d (%v) has no direct target", idx, in.Kind))
	}
	return p.PCOf(in.Target)
}

// EndPC returns the first address past the last instruction.
func (p *Program) EndPC() uint64 {
	if len(p.Instrs) == 0 {
		return p.BaseAddr
	}
	last := &p.Instrs[len(p.Instrs)-1]
	return last.NextPC()
}

// CoalesceTableAddr returns the address of slot i of the coalesce table.
// The table is laid out immediately after the last instruction.
func (p *Program) CoalesceTableAddr(i int) uint64 {
	return p.EndPC() + uint64(i*isa.SizeCoalesceEntry)
}

// FindInstr returns the layout index of the instruction at pc, or
// NoTarget if pc is not an instruction start.
func (p *Program) FindInstr(pc uint64) int32 {
	lo, hi := 0, len(p.Instrs)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.Instrs[mid].PC < pc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.Instrs) && p.Instrs[lo].PC == pc {
		return int32(lo)
	}
	return NoTarget
}

// LineBranches returns the layout indexes, in layout order, of the
// direct branches whose PCs lie in cache lines [first, end) (line
// addresses, as cache.LineOf gives them). Lines outside the text hold
// none. Hardware predecoders (Shotgun, Confluence, Shadow) use it to
// discover the branches in fetched or prefetched lines. The slice
// shares the program's table and must not be modified.
func (p *Program) LineBranches(first, end uint64) []int32 {
	if end <= first {
		return nil
	}
	lo, hi := p.lineOffset(first), p.lineOffset(end)
	return p.branchIdxs[lo:hi:hi]
}

// TextLines returns the cache lines the instructions occupy, [first,
// end) as cache.LineOf gives them: the range a table indexed by fetched
// line must cover.
func (p *Program) TextLines() (first, end uint64) {
	return p.firstLine, p.firstLine + uint64(len(p.lineStart)) - 1
}

// lineOffset returns the index in branchIdxs of the first direct
// branch at or after the start of line.
func (p *Program) lineOffset(line uint64) int32 {
	if line < p.firstLine {
		return 0
	}
	if l := line - p.firstLine; l < uint64(len(p.lineStart)) {
		return p.lineStart[l]
	}
	return int32(len(p.branchIdxs))
}

// KindCounts returns static instruction counts per kind.
func (p *Program) KindCounts() [isa.NumKinds]int64 {
	var c [isa.NumKinds]int64
	for i := range p.Instrs {
		c[p.Instrs[i].Kind]++
	}
	return c
}

// StaticBranches returns the number of direct branch instructions.
func (p *Program) StaticBranches() int {
	return len(p.branchIdxs)
}
