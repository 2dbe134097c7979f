package prefetcher

import (
	"bytes"
	"testing"

	"twig/internal/btb"
	"twig/internal/cache"
	"twig/internal/checkpoint"
	"twig/internal/isa"
	"twig/internal/program"
)

// fakeFrontend records prefetched lines and serves a small program.
type fakeFrontend struct {
	p     *program.Program
	lines []uint64
}

func (f *fakeFrontend) PrefetchLine(line uint64, cycle float64) { f.lines = append(f.lines, line) }
func (f *fakeFrontend) Program() *program.Program               { return f.p }

// lineProgram builds a function whose blocks land on known cache
// lines: a conditional early, then regular padding, then a jump.
func lineProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder(0x400000)
	f := b.NewFunc()
	b0 := f.NewBlock()
	b0.Regular(4)
	b0.Cond(1, 128, false)
	b1 := f.NewBlock()
	for i := 0; i < 40; i++ {
		b1.Regular(6) // push the next branch into a later line
	}
	b1.Jump(2)
	b2 := f.NewBlock()
	b2.Return()
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBaselineTakenOnlyMisses(t *testing.T) {
	s := NewBaseline(btb.DefaultConfig(), 0, false)
	// Not-taken conditional miss: access counted, miss not.
	res := s.Lookup(0x1000, isa.KindCondBranch, 0, false)
	if res.Hit {
		t.Fatal("hit in an empty BTB")
	}
	if s.Stats().Misses[isa.KindCondBranch] != 0 {
		t.Fatal("not-taken conditional counted as a real miss")
	}
	// Taken miss: counted.
	s.Lookup(0x1000, isa.KindCondBranch, 0, true)
	if s.Stats().Misses[isa.KindCondBranch] != 1 {
		t.Fatal("taken conditional miss not counted")
	}
	if s.Stats().Accesses[isa.KindCondBranch] != 2 {
		t.Fatal("accesses not counted per lookup")
	}
}

func TestBaselineFillAndHit(t *testing.T) {
	s := NewBaseline(btb.DefaultConfig(), 0, false)
	s.Resolve(&Resolution{PC: 0x1000, Target: 0x2000, Kind: isa.KindJump, Taken: true})
	if res := s.Lookup(0x1000, isa.KindJump, 1, true); !res.Hit {
		t.Fatal("resolved branch misses")
	}
}

func TestBaselinePrefetchBufferFlow(t *testing.T) {
	s := NewBaseline(btb.DefaultConfig(), 8, false)
	s.InsertPrefetch(0x1000, 0x2000, isa.KindJump, 10)
	// Lookup before readiness: late hit with residual.
	res := s.Lookup(0x1000, isa.KindJump, 5, true)
	if !res.Hit || !res.FromPrefetch || res.LateBy != 5 {
		t.Fatalf("late buffered lookup = %+v", res)
	}
	// The entry was promoted into the BTB.
	if !s.ProbeDemand(0x1000) {
		t.Fatal("prefetched entry not promoted on use")
	}
	st := s.PrefetchStats()
	if st.Issued != 1 || st.Used != 1 || st.Late != 1 {
		t.Fatalf("prefetch stats %+v", st)
	}
}

func TestBaselineRedundantPrefetchDropped(t *testing.T) {
	s := NewBaseline(btb.DefaultConfig(), 8, false)
	s.Resolve(&Resolution{PC: 0x1000, Target: 0x2000, Kind: isa.KindJump, Taken: true})
	s.InsertPrefetch(0x1000, 0x2000, isa.KindJump, 0)
	st := s.PrefetchStats()
	if st.Redundant != 1 {
		t.Fatalf("redundant = %d, want 1", st.Redundant)
	}
	// Issued includes redundant attempts (the instruction executed) so
	// accuracy is charged for them.
	if st.Issued != 1 || st.Used != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBaselineThreeCEnabled(t *testing.T) {
	s := NewBaseline(btb.Config{Entries: 16, Ways: 2}, 0, true)
	if s.ThreeC() == nil {
		t.Fatal("classifier missing")
	}
	s.Lookup(0x100, isa.KindJump, 0, true)
	if s.ThreeC().Compulsory != 1 {
		t.Fatal("first taken miss not compulsory")
	}
}

func TestIdealAlwaysHits(t *testing.T) {
	s := NewIdeal()
	for i := 0; i < 100; i++ {
		if !s.Lookup(uint64(i), isa.KindCondBranch, 0, true).Hit {
			t.Fatal("ideal BTB missed")
		}
	}
	if s.Stats().TotalMisses() != 0 || s.Stats().TotalAccesses() != 100 {
		t.Fatal("ideal stats wrong")
	}
}

func TestShotgunPartitioning(t *testing.T) {
	s := NewShotgun(DefaultShotgunConfig())
	s.Attach(&fakeFrontend{p: lineProgram(t)})
	// Fill U-BTB with an unconditional branch; conditional lookups must
	// not see it (separate partitions).
	s.Resolve(&Resolution{PC: 0x1000, Target: 0x2000, Kind: isa.KindJump, Taken: true})
	if s.Lookup(0x1000, isa.KindCondBranch, 0, true).Hit {
		t.Fatal("conditional lookup hit the U-BTB")
	}
	if !s.Lookup(0x1000, isa.KindJump, 0, true).Hit {
		t.Fatal("unconditional lookup missed the U-BTB")
	}
}

func TestShotgunFootprintPredecode(t *testing.T) {
	p := lineProgram(t)
	fe := &fakeFrontend{p: p}
	s := NewShotgun(DefaultShotgunConfig())
	s.Attach(fe)

	// The function entry holds a conditional in line 0 of the text.
	condIdx := int32(1) // b0: regular then cond
	cond := p.Instrs[condIdx]
	if cond.Kind != isa.KindCondBranch {
		t.Fatalf("expected conditional at layout index 1, got %v", cond.Kind)
	}

	// An unconditional branch elsewhere targets the function entry.
	uncondPC := uint64(0x500000)
	s.Resolve(&Resolution{PC: uncondPC, Target: p.BaseAddr, Kind: isa.KindJump, Taken: true})
	// Fetch touches the target line: recorded in the footprint.
	s.OnFetchLine(cache.LineOf(p.BaseAddr), 1)

	// Next execution of the unconditional: U-BTB hit triggers footprint
	// prefetch, predecoding the conditional into the C-BTB.
	if !s.Lookup(uncondPC, isa.KindJump, 2, true).Hit {
		t.Fatal("trained unconditional missed")
	}
	if len(fe.lines) == 0 {
		t.Fatal("footprint prefetch issued no lines")
	}
	res := s.Lookup(cond.PC, isa.KindCondBranch, 3, true)
	if !res.Hit || !res.FromPrefetch {
		t.Fatalf("predecoded conditional lookup = %+v", res)
	}
	if s.PrefetchStats().Used != 1 {
		t.Fatal("prefetch use not counted")
	}
}

func TestShotgunSpatialRangeAccounting(t *testing.T) {
	s := NewShotgun(DefaultShotgunConfig())
	s.Attach(&fakeFrontend{p: lineProgram(t)})
	// Unconditional with target line 100.
	s.Resolve(&Resolution{PC: 0x1, Target: 100 << cache.LineShift, Kind: isa.KindJump, Taken: true})
	// A conditional within 8 lines of the target: inside range.
	s.Resolve(&Resolution{PC: 103 << cache.LineShift, Target: 0x2, Kind: isa.KindCondBranch, Taken: true})
	// A conditional far away: outside range.
	s.Resolve(&Resolution{PC: 500 << cache.LineShift, Target: 0x2, Kind: isa.KindCondBranch, Taken: false})
	if s.CondResolved != 2 || s.CondOutsideRange != 1 {
		t.Fatalf("range accounting: resolved=%d outside=%d", s.CondResolved, s.CondOutsideRange)
	}
}

func TestConfluenceStreamReplay(t *testing.T) {
	p := lineProgram(t)
	fe := &fakeFrontend{p: p}
	c := NewConfluence(ConfluenceConfig{BTB: btb.DefaultConfig(), HistoryLines: 1024, ReplayDepth: 4})
	c.Attach(fe)

	entryLine := cache.LineOf(p.BaseAddr)
	// First pass: record the miss stream entryLine, entryLine+1.
	c.OnLineMiss(entryLine, 1)
	c.OnLineMiss(entryLine+1, 2)
	// Re-encountering the first line replays its successors:
	// prefetching lines and predecoding their branches into the BTB.
	c.OnLineMiss(entryLine, 3)
	if len(fe.lines) == 0 {
		t.Fatal("replay issued no line prefetches")
	}
	// The conditional in the entry line was predecoded.
	cond := p.Instrs[1]
	res := c.Lookup(cond.PC, isa.KindCondBranch, 4, true)
	if !res.Hit || !res.FromPrefetch {
		t.Fatalf("predecoded lookup after replay = %+v", res)
	}
}

// TestConfluenceStateIsTextIndexed round-trips Confluence's
// last-position table through a checkpoint and requires a restore to
// reject a recorded line outside the attached program's text.
func TestConfluenceStateIsTextIndexed(t *testing.T) {
	cfg := ConfluenceConfig{BTB: btb.DefaultConfig(), HistoryLines: 4, ReplayDepth: 2}
	p := lineProgram(t)
	first, end := p.TextLines()
	c := NewConfluence(cfg)
	c.Attach(&fakeFrontend{p: p})
	for i := 0; i < 6; i++ { // wraps the 4-line history
		c.OnLineMiss(first+uint64(i)%(end-first), float64(i))
	}
	save := func(c *Confluence) []byte {
		w := checkpoint.NewWriter()
		if err := c.SaveState(w); err != nil {
			t.Fatal(err)
		}
		return w.Finish()
	}
	restore := func(p *program.Program, data []byte) error {
		r, err := checkpoint.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		c := NewConfluence(cfg)
		c.Attach(&fakeFrontend{p: p})
		if err := c.RestoreState(r); err != nil {
			return err
		}
		if got := save(c); !bytes.Equal(got, data) {
			t.Fatal("restored state saves different bytes")
		}
		return nil
	}
	data := save(c)
	if err := restore(p, data); err != nil {
		t.Fatal(err)
	}

	b := program.NewBuilder(p.BaseAddr + 1<<20)
	b.NewFunc().NewBlock().Return()
	far, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if err := restore(far, data); err == nil {
		t.Fatal("restore accepted lines outside the program's text")
	}
}

func TestAssocNonPow2Entries(t *testing.T) {
	// Shotgun's published 5120-entry U-BTB: 5 ways x 1024 sets.
	a := newAssoc(5120, 5)
	a.insert(0x123, 0x456, isa.KindJump, false)
	if a.lookup(0x123) < 0 {
		t.Fatal("lookup failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid assoc geometry accepted")
		}
	}()
	newAssoc(100, 3)
}

func TestAssocPrefetchFlagSemantics(t *testing.T) {
	a := newAssoc(16, 2)
	slot := a.insert(1, 2, isa.KindCondBranch, true)
	if !a.pref[slot] {
		t.Fatal("prefetch fill did not set the flag")
	}
	// Demand fill clears it.
	slot = a.insert(1, 2, isa.KindCondBranch, false)
	if a.pref[slot] {
		t.Fatal("demand fill did not clear the flag")
	}
	// A prefetch refresh of a demand entry leaves it demand.
	slot = a.insert(1, 2, isa.KindCondBranch, true)
	if a.pref[slot] {
		t.Fatal("prefetch refresh overrode demand provenance")
	}
}

func TestShotgunReturnFootprint(t *testing.T) {
	p := lineProgram(t)
	fe := &fakeFrontend{p: p}
	s := NewShotgun(DefaultShotgunConfig())
	s.Attach(fe)

	// A call at callPC; the conditional at p.Instrs[1] lives in the
	// continuation region (same line as the call site).
	cond := p.Instrs[1]
	callPC := p.BaseAddr // pretend the call sits at the region base
	calleePC := uint64(0x900000)

	// Execute the call, run the callee (far away), return, then fetch
	// the continuation line: that trains the call's return footprint.
	s.Resolve(&Resolution{PC: callPC, Target: calleePC, Kind: isa.KindCall, Taken: true})
	s.OnFetchLine(cache.LineOf(calleePC), 1) // callee region (call footprint)
	s.Resolve(&Resolution{PC: calleePC + 64, Target: callPC + 5, Kind: isa.KindReturn, Taken: true})
	s.OnFetchLine(cache.LineOf(callPC), 2) // continuation (return footprint)

	// Next prediction of the call prefetches the continuation's
	// conditionals into the C-BTB.
	if !s.Lookup(callPC, isa.KindCall, 10, true).Hit {
		t.Fatal("trained call missed the U-BTB")
	}
	res := s.Lookup(cond.PC, isa.KindCondBranch, 11, true)
	if !res.Hit || !res.FromPrefetch {
		t.Fatalf("continuation conditional not predecoded: %+v", res)
	}
}
