package program

import (
	"cmp"
	"fmt"
	"slices"

	"twig/internal/isa"
)

// Injection describes prefetch instructions to insert at the start of a
// basic block, the way Twig's link-time rewriting places them at the
// chosen injection site (§3.1: "Twig then inserts prefetch instructions
// into these locations").
type Injection struct {
	// Block is the stable ID of the basic block receiving the
	// instructions.
	Block int32
	// Prefetches lists single-entry brprefetch operations: each value is
	// the stable ID of the branch whose (PC, target) pair is prefetched.
	Prefetches []int32
	// Coalesces lists coalesced prefetch operations.
	Coalesces []CoalesceOp
}

// CoalesceOp is one brcoalesce instruction: prefetch the table entries
// selected by Mask starting at table slot Base.
type CoalesceOp struct {
	// Base is the first coalesce-table slot covered by the mask.
	Base int32
	// Mask selects entries Base+i for each set bit i.
	Mask uint64
}

// InjectionPlan is the complete output of the Twig analysis: the
// coalesce table contents plus the per-block injections.
type InjectionPlan struct {
	// Table is the key-value prefetch table; the relinker sorts it by
	// branch PC (the sorted order is what makes coalescing's spatial
	// masks meaningful, §3.2). CoalesceOp.Base indexes the *sorted*
	// table; callers should therefore sort before choosing bases —
	// SortTable does both and fixes up nothing (it must be called before
	// bases are assigned).
	Table []CoalescePair
	// Injections lists per-block insertions. At most one Injection per
	// block; the relinker merges duplicates.
	Injections []Injection
}

// SortTable sorts the coalesce table by current branch PC and returns a
// map from the pre-sort index to the post-sort slot, letting analysis
// code allocate entries in discovery order and translate afterwards.
func (pl *InjectionPlan) SortTable(p *Program) []int32 {
	type keyed struct {
		pair CoalescePair
		pc   uint64
		orig int32
	}
	ks := make([]keyed, len(pl.Table))
	for i, pr := range pl.Table {
		ks[i] = keyed{pair: pr, pc: p.PCOf(pr.Branch), orig: int32(i)}
	}
	// Entries for the same branch from different sites tie. slices.SortFunc
	// runs the same pdqsort as sort.Slice, so ties land in the slots they
	// always have (TestSortTableTieOrder).
	slices.SortFunc(ks, func(a, b keyed) int { return cmp.Compare(a.pc, b.pc) })
	remap := make([]int32, len(ks))
	for newIdx, k := range ks {
		pl.Table[newIdx] = k.pair
		remap[k.orig] = int32(newIdx)
	}
	return remap
}

// Inject produces a new Program with the plan's prefetch instructions
// inserted and all addresses recomputed — the moral equivalent of
// relinking the binary. The receiver is not modified. Stable IDs of
// existing instructions are preserved; injected instructions receive
// fresh IDs at the end of the ID space.
func (p *Program) Inject(plan *InjectionPlan) (*Program, error) {
	if p.OriginalInstrs != int32(len(p.Instrs)) {
		return nil, fmt.Errorf("program: Inject on an already-injected program")
	}
	perBlock := make(map[int32]*Injection, len(plan.Injections))
	for i := range plan.Injections {
		inj := &plan.Injections[i]
		if inj.Block < 0 || int(inj.Block) >= len(p.Blocks) {
			return nil, fmt.Errorf("program: injection names unknown block %d", inj.Block)
		}
		if prev, ok := perBlock[inj.Block]; ok {
			prev.Prefetches = append(prev.Prefetches, inj.Prefetches...)
			prev.Coalesces = append(prev.Coalesces, inj.Coalesces...)
		} else {
			cp := *inj
			perBlock[inj.Block] = &cp
		}
	}

	added := 0
	for _, inj := range perBlock {
		added += len(inj.Prefetches) + len(inj.Coalesces)
	}

	q := &Program{
		BaseAddr:       p.BaseAddr,
		OriginalInstrs: p.OriginalInstrs,
		Instrs:         make([]Instr, 0, len(p.Instrs)+added),
		Blocks:         make([]Block, 0, len(p.Blocks)),
		BlockOf:        make([]int32, 0, len(p.Instrs)+added),
		Funcs:          append([]Func(nil), p.Funcs...),
		IndirectSets:   p.IndirectSets, // shared: target IDs are stable
		CoalesceTable:  append([]CoalescePair(nil), plan.Table...),
	}
	q.idToIdx = make([]int32, int(p.OriginalInstrs)+added)

	nextID := p.OriginalInstrs
	pc := p.BaseAddr
	emit := func(in Instr) {
		in.PC = pc
		pc += uint64(in.Size)
		q.idToIdx[in.ID] = int32(len(q.Instrs))
		q.BlockOf = append(q.BlockOf, int32(len(q.Blocks)))
		q.Instrs = append(q.Instrs, in)
	}

	for bi := range p.Blocks {
		blk := &p.Blocks[bi]
		first := int32(len(q.Instrs))
		if inj, ok := perBlock[blk.ID]; ok {
			for _, branchID := range inj.Prefetches {
				if branchID < 0 || branchID >= p.OriginalInstrs {
					return nil, fmt.Errorf("program: brprefetch of invalid branch ID %d", branchID)
				}
				if !p.InstrByID(branchID).Kind.IsDirect() {
					return nil, fmt.Errorf("program: brprefetch target ID %d is not a direct branch", branchID)
				}
				emit(Instr{
					ID:     nextID,
					Target: branchID,
					Aux:    NoTarget,
					Size:   isa.SizeBrPrefetch,
					Kind:   isa.KindBrPrefetch,
				})
				nextID++
			}
			for _, op := range inj.Coalesces {
				if op.Base < 0 || int(op.Base) >= len(q.CoalesceTable) {
					return nil, fmt.Errorf("program: brcoalesce base %d outside table of %d", op.Base, len(q.CoalesceTable))
				}
				if op.Mask == 0 {
					return nil, fmt.Errorf("program: brcoalesce with empty mask")
				}
				q.CoalesceMasks = append(q.CoalesceMasks, op.Mask)
				emit(Instr{
					ID:     nextID,
					Target: op.Base,
					Aux:    int32(len(q.CoalesceMasks) - 1),
					Size:   isa.SizeBrCoalesce,
					Kind:   isa.KindBrCoalesce,
				})
				nextID++
			}
		}
		for i := blk.First; i <= blk.Last; i++ {
			emit(p.Instrs[i])
		}
		q.Blocks = append(q.Blocks, Block{
			First: first,
			Last:  int32(len(q.Instrs)) - 1,
			Func:  blk.Func,
			ID:    blk.ID,
		})
	}

	// Function entries may have shifted; recompute from block layout.
	for fi := range q.Funcs {
		q.Funcs[fi].Entry = q.Blocks[q.Funcs[fi].FirstBlock].First
	}

	q.finish()
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("program: relink produced invalid program: %w", err)
	}
	return q, nil
}

// InjectedInstrs returns how many instructions were added by injection.
func (p *Program) InjectedInstrs() int {
	return len(p.Instrs) - int(p.OriginalInstrs)
}

// InjectedBytes returns the static byte overhead of injection:
// instruction bytes plus the coalesce table.
func (p *Program) InjectedBytes() uint64 {
	var b uint64
	for i := range p.Instrs {
		if p.Instrs[i].ID >= p.OriginalInstrs {
			b += uint64(p.Instrs[i].Size)
		}
	}
	return b + uint64(len(p.CoalesceTable)*isa.SizeCoalesceEntry)
}
