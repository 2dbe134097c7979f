package program

import (
	"reflect"
	"sort"
	"testing"

	"twig/internal/isa"
	"twig/internal/rng"
)

// buildForInjection makes a program with well-known branch positions:
// function 0: blockA (regs, cond), blockB (regs, call f1), blockC (ret),
// function 1: one block with a return.
func buildForInjection(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder(0x400000)
	f0 := b.NewFunc()
	a := f0.NewBlock()
	a.Regular(4)
	a.Cond(1, 200, false)
	bb := f0.NewBlock()
	bb.Regular(4)
	bb.Call(1)
	cc := f0.NewBlock()
	cc.Return()
	f1 := b.NewFunc()
	fb := f1.NewBlock()
	fb.Regular(4)
	fb.Return()
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// condID returns the stable ID of the first conditional branch.
func condID(p *Program) int32 {
	for i := range p.Instrs {
		if p.Instrs[i].Kind == isa.KindCondBranch {
			return p.Instrs[i].ID
		}
	}
	return NoTarget
}

func callID(p *Program) int32 {
	for i := range p.Instrs {
		if p.Instrs[i].Kind == isa.KindCall {
			return p.Instrs[i].ID
		}
	}
	return NoTarget
}

func TestInjectBrPrefetch(t *testing.T) {
	p := buildForInjection(t)
	branch := condID(p)
	plan := &InjectionPlan{
		Injections: []Injection{{Block: 0, Prefetches: []int32{branch}}},
	}
	q, err := p.Inject(plan)
	if err != nil {
		t.Fatal(err)
	}
	if q.InjectedInstrs() != 1 {
		t.Fatalf("injected %d instructions, want 1", q.InjectedInstrs())
	}
	// The brprefetch must be the first instruction of block 0 and the
	// original instructions must all keep their stable IDs resolvable.
	first := q.Instrs[q.Blocks[0].First]
	if first.Kind != isa.KindBrPrefetch {
		t.Fatalf("block 0 starts with %v, want brprefetch", first.Kind)
	}
	if first.Target != branch {
		t.Fatal("brprefetch references the wrong branch")
	}
	// Addresses shifted by the injected size.
	if q.PCOf(branch) != p.PCOf(branch)+uint64(isa.SizeBrPrefetch) {
		t.Fatalf("branch PC %#x, want %#x shifted by %d",
			q.PCOf(branch), p.PCOf(branch), isa.SizeBrPrefetch)
	}
	// Original program untouched.
	if p.InjectedInstrs() != 0 || len(p.Instrs) != int(p.OriginalInstrs) {
		t.Fatal("Inject mutated the receiver")
	}
	// Injected bytes accounted.
	if q.InjectedBytes() != uint64(isa.SizeBrPrefetch) {
		t.Fatalf("InjectedBytes = %d, want %d", q.InjectedBytes(), isa.SizeBrPrefetch)
	}
}

func TestInjectCoalesce(t *testing.T) {
	p := buildForInjection(t)
	cond, call := condID(p), callID(p)
	plan := &InjectionPlan{
		Table: []CoalescePair{
			{Branch: call, Target: p.InstrByID(call).Target},
			{Branch: cond, Target: p.InstrByID(cond).Target},
		},
	}
	// Sort the table by branch PC: cond precedes call in layout.
	remap := plan.SortTable(p)
	if plan.Table[0].Branch != cond || plan.Table[1].Branch != call {
		t.Fatal("SortTable did not order by branch PC")
	}
	if remap[0] != 1 || remap[1] != 0 {
		t.Fatalf("SortTable remap = %v, want [1 0]", remap)
	}
	plan.Injections = []Injection{{
		Block:     0,
		Coalesces: []CoalesceOp{{Base: 0, Mask: 0b11}},
	}}
	q, err := p.Inject(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.CoalesceTable) != 2 {
		t.Fatalf("coalesce table has %d entries, want 2", len(q.CoalesceTable))
	}
	first := q.Instrs[q.Blocks[0].First]
	if first.Kind != isa.KindBrCoalesce {
		t.Fatalf("block 0 starts with %v, want brcoalesce", first.Kind)
	}
	if q.CoalesceMasks[first.Aux] != 0b11 {
		t.Fatal("coalesce mask not preserved")
	}
	// Static bytes: instruction + 2 table entries.
	want := uint64(isa.SizeBrCoalesce + 2*isa.SizeCoalesceEntry)
	if q.InjectedBytes() != want {
		t.Fatalf("InjectedBytes = %d, want %d", q.InjectedBytes(), want)
	}
	// Table addresses live after the last instruction.
	if q.CoalesceTableAddr(0) != q.EndPC() {
		t.Fatal("coalesce table does not start at EndPC")
	}
}

func TestInjectMergesDuplicateBlocks(t *testing.T) {
	p := buildForInjection(t)
	cond, call := condID(p), callID(p)
	plan := &InjectionPlan{
		Injections: []Injection{
			{Block: 0, Prefetches: []int32{cond}},
			{Block: 0, Prefetches: []int32{call}},
		},
	}
	q, err := p.Inject(plan)
	if err != nil {
		t.Fatal(err)
	}
	if q.InjectedInstrs() != 2 {
		t.Fatalf("injected %d, want 2 (merged injections)", q.InjectedInstrs())
	}
}

func TestInjectErrors(t *testing.T) {
	p := buildForInjection(t)
	cond := condID(p)

	// Unknown block.
	if _, err := p.Inject(&InjectionPlan{Injections: []Injection{{Block: 9999, Prefetches: []int32{cond}}}}); err == nil {
		t.Fatal("unknown block accepted")
	}
	// Prefetch of a non-branch.
	var regularID int32 = NoTarget
	for i := range p.Instrs {
		if p.Instrs[i].Kind == isa.KindRegular {
			regularID = p.Instrs[i].ID
			break
		}
	}
	if _, err := p.Inject(&InjectionPlan{Injections: []Injection{{Block: 0, Prefetches: []int32{regularID}}}}); err == nil {
		t.Fatal("brprefetch of a non-branch accepted")
	}
	// Coalesce base out of range.
	if _, err := p.Inject(&InjectionPlan{Injections: []Injection{{Block: 0, Coalesces: []CoalesceOp{{Base: 5, Mask: 1}}}}}); err == nil {
		t.Fatal("out-of-range coalesce base accepted")
	}
	// Empty mask.
	if _, err := p.Inject(&InjectionPlan{
		Table:      []CoalescePair{{Branch: cond, Target: p.InstrByID(cond).Target}},
		Injections: []Injection{{Block: 0, Coalesces: []CoalesceOp{{Base: 0, Mask: 0}}}},
	}); err == nil {
		t.Fatal("empty coalesce mask accepted")
	}
	// Double injection.
	q, err := p.Inject(&InjectionPlan{Injections: []Injection{{Block: 0, Prefetches: []int32{cond}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Inject(&InjectionPlan{}); err == nil {
		t.Fatal("re-injecting an injected program accepted")
	}
}

func TestInjectPreservesSemantics(t *testing.T) {
	// Every original instruction must keep its kind, size, and resolved
	// target PC relationships after relinking.
	p := randomProgram(t, 777, 30)
	// Build a plan injecting a prefetch at every 5th block for the
	// first direct branch found after it.
	var plan InjectionPlan
	for bi := 0; bi < len(p.Blocks); bi += 5 {
		for i := p.Blocks[bi].First; i < int32(len(p.Instrs)); i++ {
			if p.Instrs[i].Kind.IsDirect() {
				plan.Injections = append(plan.Injections, Injection{
					Block: p.Blocks[bi].ID, Prefetches: []int32{p.Instrs[i].ID},
				})
				break
			}
		}
	}
	q, err := p.Inject(&plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Instrs {
		id := p.Instrs[i].ID
		orig := &p.Instrs[i]
		moved := q.InstrByID(id)
		if moved.Kind != orig.Kind || moved.Size != orig.Size || moved.Target != orig.Target {
			t.Fatalf("instruction %d changed identity after relink", id)
		}
		if orig.Kind.IsDirect() {
			// The target's relative identity is preserved: both resolve
			// to the same stable instruction.
			if q.InstrByID(moved.Target).ID != p.InstrByID(orig.Target).ID {
				t.Fatalf("instruction %d target identity changed", id)
			}
		}
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReorderFunctions(t *testing.T) {
	p := randomProgram(t, 424242, 20)
	// Reverse order (keeping function 0 first to mimic the layout-PGO
	// constraint, though ReorderFunctions itself does not require it).
	order := make([]int32, len(p.Funcs))
	order[0] = 0
	for i := 1; i < len(order); i++ {
		order[i] = int32(len(order) - i)
	}
	q, err := p.ReorderFunctions(order)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(q.Instrs) != len(p.Instrs) || q.TextBytes != p.TextBytes {
		t.Fatal("reorder changed the program size")
	}
	// Every instruction keeps its identity and resolved target.
	for i := range p.Instrs {
		orig := &p.Instrs[i]
		moved := q.InstrByID(orig.ID)
		if moved.Kind != orig.Kind || moved.Size != orig.Size || moved.Target != orig.Target {
			t.Fatalf("instruction %d changed identity", orig.ID)
		}
		if orig.Kind.IsDirect() &&
			q.InstrByID(moved.Target).ID != p.InstrByID(orig.Target).ID {
			t.Fatalf("instruction %d target identity changed", orig.ID)
		}
	}
	// Function 21-i now precedes function 21-j for i<j: the second
	// function in the new layout is the last original one.
	if q.Funcs[int32(len(order)-1)].Entry >= q.Funcs[1].Entry && len(order) > 2 {
		t.Fatal("reorder did not move functions")
	}
}

func TestReorderFunctionsErrors(t *testing.T) {
	p := randomProgram(t, 7, 5)
	if _, err := p.ReorderFunctions([]int32{0, 1}); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := p.ReorderFunctions([]int32{0, 1, 2, 3, 3}); err == nil {
		t.Fatal("non-permutation accepted")
	}
	order := []int32{0, 1, 2, 3, 4}
	q, err := p.ReorderFunctions(order)
	if err != nil {
		t.Fatal(err)
	}
	var branch int32 = NoTarget
	for i := range q.Instrs {
		if q.Instrs[i].Kind.IsDirect() {
			branch = q.Instrs[i].ID
			break
		}
	}
	if branch == NoTarget {
		t.Skip("random program produced no direct branch")
	}
	inj, err := q.Inject(&InjectionPlan{
		Injections: []Injection{{Block: 0, Prefetches: []int32{branch}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inj.ReorderFunctions(order); err == nil {
		t.Fatal("reorder of an injected program accepted")
	}
}

func TestHotFunctionOrder(t *testing.T) {
	p := randomProgram(t, 99, 8)
	execs := make([]int64, len(p.Blocks))
	// Make function 5 the hottest, function 2 warm.
	for bi := range p.Blocks {
		switch p.Blocks[bi].Func {
		case 5:
			execs[p.Blocks[bi].ID] = 1000
		case 2:
			execs[p.Blocks[bi].ID] = 10
		default:
			execs[p.Blocks[bi].ID] = 1
		}
	}
	order := p.HotFunctionOrder(execs)
	if order[0] != 0 {
		t.Fatal("dispatcher not kept first")
	}
	if order[1] != 5 {
		t.Fatalf("hottest function not second in layout: %v", order)
	}
	pos := map[int32]int{}
	for i, f := range order {
		pos[f] = i
	}
	if pos[2] > pos[3] && pos[2] > pos[4] && pos[2] > pos[6] && pos[2] > pos[7] {
		t.Fatalf("warm function 2 placed after all cold ones: %v", order)
	}
}

// TestSortTableTieOrder pins which slot each of a branch's duplicate
// table entries (one per coalescing site) lands in: Analyze's masks
// depend on it. The oracle is SortTable's earlier sort.Slice body.
func TestSortTableTieOrder(t *testing.T) {
	b := NewBuilder(0x400000)
	f := b.NewFunc()
	const branches = 40
	for i := 0; i < branches; i++ {
		blk := f.NewBlock()
		blk.Regular(4)
		blk.Cond(int32(i+1), 128, false)
	}
	f.NewBlock().Return()
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	var ids []int32
	for i := range p.Instrs {
		if p.Instrs[i].Kind.IsDirect() {
			ids = append(ids, p.Instrs[i].ID)
		}
	}
	r := rng.New(7)
	for _, n := range []int{2, 11, 13, 40, 51, 200, 1000, 5000} {
		for trial := 0; trial < 20; trial++ {
			// Few distinct branches, so most entries tie.
			distinct := 1 + r.Intn(min(len(ids), n))
			plan := &InjectionPlan{}
			for i := 0; i < n; i++ {
				br := ids[r.Intn(distinct)]
				plan.Table = append(plan.Table, CoalescePair{Branch: br, Target: p.InstrByID(br).Target})
			}
			want := sortSliceRemap(p, plan.Table)
			if got := plan.SortTable(p); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d trial %d: remap differs from sort.Slice's", n, trial)
			}
		}
	}
}

// sortSliceRemap is SortTable's remap as sort.Slice computed it.
func sortSliceRemap(p *Program, table []CoalescePair) []int32 {
	type keyed struct {
		pair CoalescePair
		pc   uint64
		orig int32
	}
	ks := make([]keyed, len(table))
	for i, pr := range table {
		ks[i] = keyed{pair: pr, pc: p.PCOf(pr.Branch), orig: int32(i)}
	}
	sort.Slice(ks, func(a, b int) bool { return ks[a].pc < ks[b].pc })
	remap := make([]int32, len(ks))
	for newIdx, k := range ks {
		remap[k.orig] = int32(newIdx)
	}
	return remap
}
