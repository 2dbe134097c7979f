package pipeline

import (
	"testing"

	"twig/internal/btb"
	"twig/internal/exec"
	"twig/internal/isa"
	"twig/internal/prefetcher"
	"twig/internal/program"
)

// simpleProgram builds a dispatcher-loop program with a handler that
// has a conditional, a call, and a loop — enough to exercise every
// pipeline path without the workload package (avoiding import cycles
// keeps this an internal test).
func simpleProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder(0x400000)
	main := b.NewFunc()

	h := b.NewFunc()
	b0 := h.NewBlock()
	b0.Regular(4)
	b0.Cond(1, 128, false)
	b1 := h.NewBlock()
	b1.Regular(4)
	b1.Call(2)
	b2 := h.NewBlock()
	b2.Regular(3)
	b2.Cond(2, 180, true)
	b3 := h.NewBlock()
	b3.Return()

	leaf := b.NewFunc()
	lb := leaf.NewBlock()
	lb.Regular(5)
	lb.Return()

	set := b.AddIndirectSet([]int32{h.Index}, nil)
	m0 := main.NewBlock()
	m0.Regular(4)
	m0.IndirectCall(set, true)
	m1 := main.NewBlock()
	m1.Jump(0)

	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testConfig(n int64) Config {
	cfg := DefaultConfig()
	cfg.MaxInstructions = n
	cfg.BackendCPI = 0.4
	cfg.CondMispredictRate = 0.005
	return cfg
}

func TestRunBasicInvariants(t *testing.T) {
	p := simpleProgram(t)
	cfg := testConfig(100_000)
	cfg.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	res, err := Run(p, exec.Input{Seed: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Original != 100_000 {
		t.Fatalf("original instructions %d, want 100000", res.Original)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	if ipc := res.IPC(); ipc <= 0 || ipc > cfg.Width {
		t.Fatalf("IPC %f outside (0, width]", ipc)
	}
	if res.InjectedExecuted != 0 {
		t.Fatal("uninjected binary executed injected instructions")
	}
	if f := res.FrontendBoundFrac(); f < 0 || f > 1 {
		t.Fatalf("frontend-bound fraction %f outside [0,1]", f)
	}
}

func TestRunDeterminism(t *testing.T) {
	p := simpleProgram(t)
	cfg := testConfig(50_000)
	cfg.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	r1, err := Run(p, exec.Input{Seed: 2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := testConfig(50_000)
	cfg2.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	r2, err := Run(p, exec.Input{Seed: 2}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.BTB != r2.BTB {
		t.Fatal("identical runs diverged")
	}
}

func TestIdealBTBNoResteers(t *testing.T) {
	p := simpleProgram(t)
	cfg := testConfig(50_000)
	cfg.Scheme = prefetcher.NewIdeal()
	res, err := Run(p, exec.Input{Seed: 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BTBResteers != 0 {
		t.Fatalf("ideal BTB run had %d resteers", res.BTBResteers)
	}
}

func TestIdealOrderings(t *testing.T) {
	// ideal BTB must never be slower than the baseline, and ideal
	// I-cache + ideal BTB must be the fastest of all.
	p := simpleProgram(t)
	run := func(ideal bool, icIdeal bool) *Result {
		cfg := testConfig(50_000)
		if ideal {
			cfg.Scheme = prefetcher.NewIdeal()
		} else {
			cfg.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
		}
		cfg.IdealICache = icIdeal
		res, err := Run(p, exec.Input{Seed: 4}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false, false)
	ib := run(true, false)
	both := run(true, true)
	if ib.Cycles > base.Cycles {
		t.Fatalf("ideal BTB slower than baseline: %f > %f", ib.Cycles, base.Cycles)
	}
	if both.Cycles > ib.Cycles {
		t.Fatalf("ideal everything slower than ideal BTB: %f > %f", both.Cycles, ib.Cycles)
	}
	if both.ICacheStallCycles != 0 {
		t.Fatal("ideal I-cache run recorded I-cache stalls")
	}
}

func TestFDIPHidesLatency(t *testing.T) {
	// With FDIP off, every I-cache miss exposes its full latency; with
	// FDIP on, run-ahead must hide some of it.
	p := simpleProgram(t)
	run := func(fdip bool) *Result {
		cfg := testConfig(50_000)
		cfg.Scheme = prefetcher.NewIdeal() // no BTB noise
		cfg.FDIP = fdip
		cfg.NextLinePrefetch = 0
		res, err := Run(p, exec.Input{Seed: 5}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on := run(true)
	off := run(false)
	if on.ICacheStallCycles >= off.ICacheStallCycles {
		t.Fatalf("FDIP did not hide latency: %f >= %f", on.ICacheStallCycles, off.ICacheStallCycles)
	}
}

func TestBrPrefetchCoversMiss(t *testing.T) {
	// Inject a brprefetch for the handler's conditional at the handler
	// entry block; the covered lookups must show up as CoveredMisses
	// and reduce real misses versus the uninjected binary.
	p := simpleProgram(t)
	var condID int32 = -1
	for i := range p.Instrs {
		if p.Instrs[i].Kind == isa.KindCondBranch && p.Instrs[i].Flags&program.FlagLoopBack == 0 {
			condID = p.Instrs[i].ID
			break
		}
	}
	if condID < 0 {
		t.Fatal("no conditional found")
	}
	// Inject at the dispatcher block (block of main), which executes
	// well before the handler's conditional each request.
	mainBlock := p.Blocks[p.BlockOf[p.Funcs[0].Entry]].ID
	q, err := p.Inject(&program.InjectionPlan{
		Injections: []program.Injection{{Block: mainBlock, Prefetches: []int32{condID}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(50_000)
	cfg.Scheme = prefetcher.NewBaseline(btb.Config{Entries: 4, Ways: 2}, 32, false)
	res, err := Run(q, exec.Input{Seed: 6}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectedExecuted == 0 {
		t.Fatal("injected prefetches never executed")
	}
	if res.CoveredMisses == 0 {
		t.Fatal("prefetches never covered a miss")
	}
	if res.Prefetch.Issued == 0 {
		t.Fatal("no prefetches issued")
	}
	if res.DynamicOverhead() <= 0 {
		t.Fatal("dynamic overhead not accounted")
	}
}

func TestBrCoalesceInsertsEntries(t *testing.T) {
	p := simpleProgram(t)
	var cond, call int32 = -1, -1
	for i := range p.Instrs {
		switch p.Instrs[i].Kind {
		case isa.KindCondBranch:
			if cond < 0 {
				cond = p.Instrs[i].ID
			}
		case isa.KindCall:
			if call < 0 {
				call = p.Instrs[i].ID
			}
		}
	}
	plan := &program.InjectionPlan{
		Table: []program.CoalescePair{
			{Branch: cond, Target: p.InstrByID(cond).Target},
			{Branch: call, Target: p.InstrByID(call).Target},
		},
	}
	plan.SortTable(p)
	mainBlock := p.Blocks[p.BlockOf[p.Funcs[0].Entry]].ID
	plan.Injections = []program.Injection{{
		Block:     mainBlock,
		Coalesces: []program.CoalesceOp{{Base: 0, Mask: 0b11}},
	}}
	q, err := p.Inject(plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(50_000)
	cfg.Scheme = prefetcher.NewBaseline(btb.Config{Entries: 4, Ways: 2}, 32, false)
	res, err := Run(q, exec.Input{Seed: 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefetch.Issued == 0 {
		t.Fatal("coalesced prefetches never issued")
	}
	if res.CoveredMisses == 0 {
		t.Fatal("coalesced prefetches never covered a miss")
	}
}

func TestHooksFire(t *testing.T) {
	p := simpleProgram(t)
	cfg := testConfig(20_000)
	cfg.Scheme = prefetcher.NewBaseline(btb.Config{Entries: 16, Ways: 2}, 0, false)
	c := &countingSink{t: t, resteers: map[string]int64{}}
	cfg.Sink = c
	res, err := Run(p, exec.Input{Seed: 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.takens == 0 || c.btbMiss == 0 || c.blocks == 0 {
		t.Fatalf("sink: takens=%d misses=%d blocks=%d", c.takens, c.btbMiss, c.blocks)
	}
	if c.btbMiss != res.BTB.DirectMisses() {
		t.Fatalf("BTBMiss fired %d times, direct misses %d", c.btbMiss, res.BTB.DirectMisses())
	}
}

func TestConfigValidation(t *testing.T) {
	p := simpleProgram(t)
	cfg := testConfig(0)
	if _, err := Run(p, exec.Input{Seed: 1}, cfg); err == nil {
		t.Fatal("zero instruction budget accepted")
	}
	cfg = testConfig(1000)
	cfg.Width = 0
	if _, err := Run(p, exec.Input{Seed: 1}, cfg); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestNilSchemeDefaults(t *testing.T) {
	p := simpleProgram(t)
	cfg := testConfig(10_000)
	cfg.Scheme = nil
	if _, err := Run(p, exec.Input{Seed: 9}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMPKICountsOriginalOnly(t *testing.T) {
	// Injected instructions must not dilute MPKI or IPC denominators.
	p := simpleProgram(t)
	mainBlock := p.Blocks[p.BlockOf[p.Funcs[0].Entry]].ID
	var cond int32
	for i := range p.Instrs {
		if p.Instrs[i].Kind == isa.KindCondBranch {
			cond = p.Instrs[i].ID
			break
		}
	}
	q, _ := p.Inject(&program.InjectionPlan{
		Injections: []program.Injection{{Block: mainBlock, Prefetches: []int32{cond}}},
	})
	cfg := testConfig(30_000)
	cfg.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 16, false)
	res, err := Run(q, exec.Input{Seed: 10}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Original != 30_000 {
		t.Fatalf("original = %d, want 30000", res.Original)
	}
	if res.Instructions != res.Original+res.InjectedExecuted {
		t.Fatal("instruction accounting inconsistent")
	}
}

func TestUseTAGE(t *testing.T) {
	p := simpleProgram(t)
	cfg := testConfig(40_000)
	cfg.UseTAGE = true
	cfg.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	r1, err := Run(p, exec.Input{Seed: 31}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CondMispredicts == 0 {
		t.Fatal("TAGE mode recorded no mispredicts on random outcomes")
	}
	// Determinism holds under TAGE too.
	cfg2 := testConfig(40_000)
	cfg2.UseTAGE = true
	cfg2.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	r2, err := Run(p, exec.Input{Seed: 31}, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.CondMispredicts != r2.CondMispredicts {
		t.Fatal("TAGE runs nondeterministic")
	}
}

func TestTopDownPartition(t *testing.T) {
	p := simpleProgram(t)
	cfg := testConfig(40_000)
	cfg.Scheme = prefetcher.NewBaseline(btb.Config{Entries: 4, Ways: 2}, 0, false)
	res, err := Run(p, exec.Input{Seed: 41}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	td := res.TopDown(cfg.Width, cfg.ExecResteer)
	sum := td.Retiring + td.FrontendBound + td.BadSpeculation + td.BackendBound
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("Top-Down categories sum to %f", sum)
	}
	for name, v := range map[string]float64{
		"retiring": td.Retiring, "frontend": td.FrontendBound,
		"bad-spec": td.BadSpeculation, "backend": td.BackendBound,
	} {
		if v < 0 || v > 1 {
			t.Fatalf("%s fraction %f outside [0,1]", name, v)
		}
	}
	if td.Retiring <= 0 || td.FrontendBound <= 0 {
		t.Fatal("degenerate breakdown")
	}
	if zero := (&Result{}).TopDown(6, 16); zero != (TopDown{}) {
		t.Fatal("empty result must give an empty breakdown")
	}
}
