package program

import (
	"fmt"

	"twig/internal/isa"
)

// Builder assembles a synthetic program function by function and block
// by block, with symbolic branch targets that the Link step resolves to
// instruction IDs and addresses.
//
// Target references during building are symbolic:
//   - calls name a function by builder index;
//   - conditional branches and jumps name a block of the same function
//     by intra-function block index;
//   - indirect sites name a list of functions (their entries become the
//     target set).
//
// The builder guarantees nothing about termination or reducibility; the
// workload generator is responsible for creating well-formed control
// flow (every function returns, back-edges have continuation
// probability < 1).
type Builder struct {
	funcs        []*FuncBuilder
	indirectSets [][]symbolicTarget
	baseAddr     uint64
}

type symbolicTarget struct {
	fn     int32
	weight float32
}

// NewBuilder returns an empty builder; base is the load address of the
// text segment (e.g. 0x400000).
func NewBuilder(base uint64) *Builder {
	return &Builder{baseAddr: base}
}

// NumFuncs returns the number of functions declared so far.
func (b *Builder) NumFuncs() int { return len(b.funcs) }

// Func returns the builder of a previously declared function.
func (b *Builder) Func(idx int32) *FuncBuilder { return b.funcs[idx] }

// NewFunc declares a new function and returns its builder. The returned
// FuncBuilder's Index identifies the function in call targets.
func (b *Builder) NewFunc() *FuncBuilder {
	f := &FuncBuilder{b: b, Index: int32(len(b.funcs))}
	b.funcs = append(b.funcs, f)
	return f
}

// AddIndirectSet registers a set of callee functions for an indirect
// branch site and returns the set's index (used as Instr.Aux).
func (b *Builder) AddIndirectSet(fns []int32, weights []float32) int32 {
	if len(fns) == 0 {
		panic("program: empty indirect target set")
	}
	set := make([]symbolicTarget, len(fns))
	for i, fn := range fns {
		w := float32(1)
		if weights != nil {
			w = weights[i]
		}
		set[i] = symbolicTarget{fn: fn, weight: w}
	}
	b.indirectSets = append(b.indirectSets, set)
	return int32(len(b.indirectSets) - 1)
}

// FuncBuilder accumulates the blocks of one function.
type FuncBuilder struct {
	b      *Builder
	blocks []*BlockBuilder
	// Index is the function's identity for call targets.
	Index int32
}

// NumBlocks returns the number of blocks declared so far.
func (f *FuncBuilder) NumBlocks() int { return len(f.blocks) }

// NewBlock appends a new empty block to the function and returns it.
// Blocks are laid out in creation order; a block that does not end in
// an unconditional transfer falls through to the next block.
func (f *FuncBuilder) NewBlock() *BlockBuilder {
	blk := &BlockBuilder{f: f, Index: int32(len(f.blocks))}
	f.blocks = append(f.blocks, blk)
	return blk
}

// buildInstr is the pre-link representation of an instruction.
type buildInstr struct {
	kind        isa.Kind
	size        uint8
	bias        uint8
	flags       uint8
	targetFn    int32 // call target (function index), or -1
	targetBlock int32 // cond/jump target (block index within same function), or -1
	indirectSet int32 // indirect target set, or -1
}

// BlockBuilder accumulates the instructions of one block.
type BlockBuilder struct {
	f      *FuncBuilder
	instrs []buildInstr
	// Index is the block's position within its function, used as the
	// symbolic target of conditional branches and jumps.
	Index int32
}

// Regular appends a non-branch instruction of the given byte size.
func (blk *BlockBuilder) Regular(size int) {
	if size < isa.MinRegularSize || size > isa.MaxRegularSize {
		panic(fmt.Sprintf("program: regular instruction size %d out of range", size))
	}
	blk.instrs = append(blk.instrs, buildInstr{
		kind: isa.KindRegular, size: uint8(size),
		targetFn: -1, targetBlock: -1, indirectSet: -1,
	})
}

// Cond appends a conditional branch to block targetBlock of the same
// function. bias is the taken probability in 1/256 units. loopBack
// marks a back-edge whose bias is a loop-continuation probability.
func (blk *BlockBuilder) Cond(targetBlock int32, bias uint8, loopBack bool) {
	var flags uint8
	if loopBack {
		flags |= FlagLoopBack
	}
	blk.instrs = append(blk.instrs, buildInstr{
		kind: isa.KindCondBranch, size: isa.SizeCondBranch, bias: bias, flags: flags,
		targetFn: -1, targetBlock: targetBlock, indirectSet: -1,
	})
}

// Jump appends an unconditional direct jump to block targetBlock of the
// same function.
func (blk *BlockBuilder) Jump(targetBlock int32) {
	blk.instrs = append(blk.instrs, buildInstr{
		kind: isa.KindJump, size: isa.SizeJump,
		targetFn: -1, targetBlock: targetBlock, indirectSet: -1,
	})
}

// Call appends a direct call to function fn.
func (blk *BlockBuilder) Call(fn int32) {
	blk.instrs = append(blk.instrs, buildInstr{
		kind: isa.KindCall, size: isa.SizeCall,
		targetFn: fn, targetBlock: -1, indirectSet: -1,
	})
}

// IndirectCall appends an indirect call through target set setIdx
// (from Builder.AddIndirectSet). dispatch marks the top-level request
// dispatcher site.
func (blk *BlockBuilder) IndirectCall(setIdx int32, dispatch bool) {
	var flags uint8
	if dispatch {
		flags |= FlagDispatch
	}
	blk.instrs = append(blk.instrs, buildInstr{
		kind: isa.KindIndirectCall, size: isa.SizeIndirect, flags: flags,
		targetFn: -1, targetBlock: -1, indirectSet: setIdx,
	})
}

// Return appends a return instruction.
func (blk *BlockBuilder) Return() {
	blk.instrs = append(blk.instrs, buildInstr{
		kind: isa.KindReturn, size: isa.SizeReturn,
		targetFn: -1, targetBlock: -1, indirectSet: -1,
	})
}

// Link lays out all functions, assigns addresses and stable IDs, and
// resolves symbolic targets. The builder can be linked once.
func (b *Builder) Link() (*Program, error) {
	p := &Program{BaseAddr: b.baseAddr}

	// Pass 1: assign layout indexes so targets can be resolved.
	// funcEntry[i] = layout index of function i's first instruction;
	// blockStart[f][blk] = layout index of that block's first instruction.
	total := 0
	for _, f := range b.funcs {
		if len(f.blocks) == 0 {
			return nil, fmt.Errorf("program: function %d has no blocks", f.Index)
		}
		for _, blk := range f.blocks {
			if len(blk.instrs) == 0 {
				return nil, fmt.Errorf("program: function %d block %d is empty", f.Index, blk.Index)
			}
			total += len(blk.instrs)
		}
	}
	p.Instrs = make([]Instr, 0, total)
	p.BlockOf = make([]int32, 0, total)
	funcEntry := make([]int32, len(b.funcs))
	blockStart := make([][]int32, len(b.funcs))

	idx := int32(0)
	for fi, f := range b.funcs {
		funcEntry[fi] = idx
		blockStart[fi] = make([]int32, len(f.blocks))
		firstBlock := int32(len(p.Blocks))
		for bi, blk := range f.blocks {
			blockStart[fi][bi] = idx
			blockID := int32(len(p.Blocks))
			first := idx
			for range blk.instrs {
				p.BlockOf = append(p.BlockOf, blockID)
				idx++
			}
			p.Blocks = append(p.Blocks, Block{
				First: first, Last: idx - 1, Func: int32(fi), ID: blockID,
			})
		}
		p.Funcs = append(p.Funcs, Func{
			FirstBlock: firstBlock,
			LastBlock:  int32(len(p.Blocks)) - 1,
			Entry:      funcEntry[fi],
		})
	}

	// Pass 2: emit instructions with resolved targets and addresses.
	// Stable IDs equal layout indexes at first link.
	pc := b.baseAddr
	for fi, f := range b.funcs {
		for _, blk := range f.blocks {
			for _, bi := range blk.instrs {
				in := Instr{
					PC:     pc,
					ID:     int32(len(p.Instrs)),
					Target: NoTarget,
					Aux:    NoTarget,
					Size:   bi.size,
					Kind:   bi.kind,
					Bias:   bi.bias,
					Flags:  bi.flags,
				}
				switch {
				case bi.targetFn >= 0:
					if int(bi.targetFn) >= len(b.funcs) {
						return nil, fmt.Errorf("program: call to undefined function %d", bi.targetFn)
					}
					in.Target = funcEntry[bi.targetFn]
				case bi.targetBlock >= 0:
					if int(bi.targetBlock) >= len(blockStart[fi]) {
						return nil, fmt.Errorf("program: function %d branch to undefined block %d", fi, bi.targetBlock)
					}
					in.Target = blockStart[fi][bi.targetBlock]
				case bi.indirectSet >= 0:
					in.Aux = bi.indirectSet
				}
				pc += uint64(bi.size)
				p.Instrs = append(p.Instrs, in)
			}
		}
	}
	p.OriginalInstrs = int32(len(p.Instrs))

	// Resolve indirect target sets to function-entry instruction IDs.
	p.IndirectSets = make([][]WeightedTarget, len(b.indirectSets))
	for si, set := range b.indirectSets {
		out := make([]WeightedTarget, len(set))
		for i, st := range set {
			if int(st.fn) >= len(b.funcs) {
				return nil, fmt.Errorf("program: indirect set %d names undefined function %d", si, st.fn)
			}
			out[i] = WeightedTarget{Target: funcEntry[st.fn], Weight: st.weight}
		}
		p.IndirectSets[si] = out
	}

	// Identity mapping at first link.
	p.idToIdx = make([]int32, len(p.Instrs))
	for i := range p.idToIdx {
		p.idToIdx[i] = int32(i)
	}

	p.finish()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// finish recomputes derived state (text size, branch-by-PC index) after
// a link or relink.
func (p *Program) finish() {
	p.TextBytes = p.EndPC() - p.BaseAddr + uint64(len(p.CoalesceTable)*isa.SizeCoalesceEntry)
	p.branchPCs = p.branchPCs[:0]
	p.branchIdxs = p.branchIdxs[:0]
	for i := range p.Instrs {
		if p.Instrs[i].Kind.IsDirect() {
			p.branchPCs = append(p.branchPCs, p.Instrs[i].PC)
			p.branchIdxs = append(p.branchIdxs, int32(i))
		}
	}
}

// Validate checks the program's structural invariants. It is O(n) and
// intended for tests and post-link sanity checks, not hot paths.
func (p *Program) Validate() error {
	if len(p.Instrs) == 0 {
		return fmt.Errorf("program: empty")
	}
	prevEnd := p.BaseAddr
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.PC != prevEnd {
			return fmt.Errorf("program: instruction %d PC %#x, want %#x (layout gap)", i, in.PC, prevEnd)
		}
		if in.Size == 0 {
			return fmt.Errorf("program: instruction %d has zero size", i)
		}
		prevEnd = in.NextPC()
		if in.Kind.IsDirect() || in.Kind == isa.KindBrPrefetch {
			if in.Target == NoTarget {
				return fmt.Errorf("program: instruction %d (%v) missing target", i, in.Kind)
			}
			if p.IndexOf(in.Target) == NoTarget {
				return fmt.Errorf("program: instruction %d target ID %d unmapped", i, in.Target)
			}
		}
		if in.Kind.IsIndirect() {
			if in.Aux == NoTarget || int(in.Aux) >= len(p.IndirectSets) {
				return fmt.Errorf("program: instruction %d indirect set %d invalid", i, in.Aux)
			}
		}
		if in.Kind == isa.KindBrCoalesce {
			if in.Target < 0 || int(in.Target) >= len(p.CoalesceTable) {
				return fmt.Errorf("program: instruction %d coalesce slot %d out of range", i, in.Target)
			}
			if in.Aux == NoTarget || int(in.Aux) >= len(p.CoalesceMasks) {
				return fmt.Errorf("program: instruction %d coalesce mask %d invalid", i, in.Aux)
			}
		}
		if int(p.Instrs[p.idToIdx[in.ID]].ID) != int(in.ID) {
			return fmt.Errorf("program: idToIdx inconsistent at instruction %d", i)
		}
	}
	// Blocks must tile the instruction list.
	want := int32(0)
	for bi := range p.Blocks {
		blk := &p.Blocks[bi]
		if blk.First != want {
			return fmt.Errorf("program: block %d starts at %d, want %d", bi, blk.First, want)
		}
		if blk.Last < blk.First {
			return fmt.Errorf("program: block %d empty", bi)
		}
		for i := blk.First; i <= blk.Last; i++ {
			if p.BlockOf[i] != int32(bi) {
				return fmt.Errorf("program: BlockOf[%d]=%d, want %d", i, p.BlockOf[i], bi)
			}
		}
		want = blk.Last + 1
	}
	if int(want) != len(p.Instrs) {
		return fmt.Errorf("program: blocks cover %d instructions, want %d", want, len(p.Instrs))
	}
	return nil
}
