package program

import (
	"testing"
	"testing/quick"

	"twig/internal/isa"
	"twig/internal/rng"
)

// buildTiny constructs a two-function program: f0 with a conditional, a
// call to f1, and a return; f1 a straight body with a return.
func buildTiny(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder(0x400000)
	f0 := b.NewFunc()
	f1Idx := int32(1)

	blk0 := f0.NewBlock()
	blk0.Regular(4)
	blk0.Cond(1, 128, false)
	blk1 := f0.NewBlock()
	blk1.Regular(3)
	blk1.Call(f1Idx)
	blk2 := f0.NewBlock()
	blk2.Regular(5)
	blk2.Return()

	f1 := b.NewFunc()
	if f1.Index != f1Idx {
		t.Fatalf("function index %d, want %d", f1.Index, f1Idx)
	}
	fb := f1.NewBlock()
	fb.Regular(2)
	fb.Regular(6)
	fb.Return()

	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLinkBasics(t *testing.T) {
	p := buildTiny(t)
	if got := len(p.Instrs); got != 9 {
		t.Fatalf("instruction count %d, want 9", got)
	}
	if p.BaseAddr != 0x400000 || p.Instrs[0].PC != 0x400000 {
		t.Fatal("base address not honored")
	}
	// PCs must be contiguous (validated by Link, re-check directly).
	for i := 1; i < len(p.Instrs); i++ {
		if p.Instrs[i].PC != p.Instrs[i-1].NextPC() {
			t.Fatalf("PC gap at %d", i)
		}
	}
	// The call must target f1's entry.
	var call *Instr
	for i := range p.Instrs {
		if p.Instrs[i].Kind == isa.KindCall {
			call = &p.Instrs[i]
		}
	}
	if call == nil {
		t.Fatal("no call instruction emitted")
	}
	if p.PCOf(call.Target) != p.Instrs[p.Funcs[1].Entry].PC {
		t.Fatal("call target is not f1's entry")
	}
}

func TestFindInstr(t *testing.T) {
	p := buildTiny(t)
	for i := range p.Instrs {
		if got := p.FindInstr(p.Instrs[i].PC); got != int32(i) {
			t.Fatalf("FindInstr(%#x) = %d, want %d", p.Instrs[i].PC, got, i)
		}
	}
	if p.FindInstr(p.BaseAddr+1) != NoTarget {
		t.Fatal("FindInstr matched a mid-instruction address")
	}
	if p.FindInstr(p.EndPC()) != NoTarget {
		t.Fatal("FindInstr matched past the end")
	}
}

// TestLineBranchesMatchesBruteForce checks the per-line branch table
// against a scan of every instruction: every line of an original, an
// injected and a reordered program, the lines just outside the text,
// and 4-line aligned regions (BulkPreload's default 256-byte region).
func TestLineBranchesMatchesBruteForce(t *testing.T) {
	orig := randomProgram(t, 12345, 40)
	var plan InjectionPlan
	for bi := 0; bi+1 < len(orig.Blocks); bi += 2 {
		if br := orig.Instrs[orig.Blocks[bi+1].Last]; br.Kind.IsDirect() {
			plan.Injections = append(plan.Injections, Injection{Block: orig.Blocks[bi].ID, Prefetches: []int32{br.ID}})
		}
	}
	injected, err := orig.Inject(&plan)
	if err != nil {
		t.Fatal(err)
	}
	if injected.InjectedInstrs() == 0 {
		t.Fatal("plan injected nothing")
	}
	order := make([]int32, len(orig.Funcs))
	for i := range order {
		order[i] = int32(len(order) - 1 - i)
	}
	reordered, err := orig.ReorderFunctions(order)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		p    *Program
	}{{"original", orig}, {"injected", injected}, {"reordered", reordered}} {
		p := tc.p
		want := func(first, end uint64) []int32 {
			var idxs []int32
			for i := range p.Instrs {
				in := &p.Instrs[i]
				if line := in.PC >> 6; in.Kind.IsDirect() && line >= first && line < end {
					idxs = append(idxs, int32(i))
				}
			}
			return idxs
		}
		check := func(first, end uint64) {
			t.Helper()
			got, w := p.LineBranches(first, end), want(first, end)
			if len(got) != len(w) {
				t.Fatalf("%s: LineBranches(%#x, %#x) found %d branches, want %d", tc.name, first, end, len(got), len(w))
			}
			for i := range got {
				if got[i] != w[i] {
					t.Fatalf("%s: LineBranches(%#x, %#x)[%d] = %d, want %d", tc.name, first, end, i, got[i], w[i])
				}
			}
		}
		first, last := p.BaseAddr>>6, (p.EndPC()-1)>>6
		for line := first - 2; line <= last+2; line++ {
			check(line, line+1)
		}
		for base := first &^ 3; base <= last; base += 4 {
			check(base, base+4)
		}
		check(0, first)
		check(last+1, last+100)
		check(first, last+1)
		// The table is shared: appending to a result must not write it.
		_ = append(p.LineBranches(first, first+1), -1)
		check(first, first+2)
		if got := len(p.LineBranches(first, last+1)); got != p.StaticBranches() {
			t.Fatalf("%s: the whole text holds %d branches, StaticBranches = %d", tc.name, got, p.StaticBranches())
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(0x1000)
	f := b.NewFunc()
	_ = f
	if _, err := b.Link(); err == nil {
		t.Fatal("linking a function with no blocks should fail")
	}

	b2 := NewBuilder(0x1000)
	f2 := b2.NewFunc()
	f2.NewBlock() // empty block
	if _, err := b2.Link(); err == nil {
		t.Fatal("linking an empty block should fail")
	}

	b3 := NewBuilder(0x1000)
	f3 := b3.NewFunc()
	blk := f3.NewBlock()
	blk.Call(99) // undefined function
	if _, err := b3.Link(); err == nil {
		t.Fatal("call to undefined function should fail to link")
	}
}

func TestRegularSizeBounds(t *testing.T) {
	b := NewBuilder(0)
	blk := b.NewFunc().NewBlock()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range regular size did not panic")
		}
	}()
	blk.Regular(isa.MaxRegularSize + 1)
}

// randomProgram builds a structurally random (but always valid) program
// for property tests.
func randomProgram(t *testing.T, seed uint64, funcs int) *Program {
	t.Helper()
	r := rng.New(seed)
	b := NewBuilder(0x400000)
	for fi := 0; fi < funcs; fi++ {
		f := b.NewFunc()
		blocks := 2 + r.Intn(5)
		for bi := 0; bi < blocks; bi++ {
			blk := f.NewBlock()
			for k := 0; k < 1+r.Intn(4); k++ {
				blk.Regular(2 + r.Intn(5))
			}
			switch r.Intn(4) {
			case 0:
				if bi+1 < blocks {
					blk.Cond(int32(bi+1), uint8(r.Intn(256)), false)
				}
			case 1:
				if fi+1 < funcs {
					blk.Call(int32(fi + 1 + r.Intn(funcs-fi-1)))
				}
			case 2:
				if bi+1 < blocks {
					blk.Jump(int32(bi + 1))
				}
			}
		}
		last := f.NewBlock()
		last.Regular(3)
		last.Return()
	}
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRandomProgramsValidate(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		b := NewBuilder(0x400000)
		f := b.NewFunc()
		blocks := 1 + r.Intn(6)
		for bi := 0; bi < blocks; bi++ {
			blk := f.NewBlock()
			blk.Regular(2 + r.Intn(6))
			if bi+1 < blocks && r.Bool(0.5) {
				blk.Cond(int32(bi+1), 100, false)
			}
		}
		f.NewBlock().Return()
		p, err := b.Link()
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKindCountsAndStaticBranches(t *testing.T) {
	p := buildTiny(t)
	c := p.KindCounts()
	if c[isa.KindCondBranch] != 1 || c[isa.KindCall] != 1 || c[isa.KindReturn] != 2 {
		t.Fatalf("kind counts wrong: %+v", c)
	}
	if p.StaticBranches() != 2 { // cond + call (returns are not direct)
		t.Fatalf("StaticBranches = %d, want 2", p.StaticBranches())
	}
}
