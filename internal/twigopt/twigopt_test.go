package twigopt

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"twig/internal/isa"
	"twig/internal/profile"
	"twig/internal/program"
	"twig/internal/rng"
)

// paperExample reconstructs the Fig. 13 scenario: BTB misses at branch
// A with candidate predecessor blocks B, C, D, E whose execution counts
// are 16, 8, 6, 3 and whose timely-coverable miss counts are 4, 4, 2, 2
// — conditional probabilities 0.25, 0.5, 0.33, 0.66.
func paperExample(t *testing.T) (*program.Program, *profile.Profile, int32) {
	t.Helper()
	b := program.NewBuilder(0x400000)
	f := b.NewFunc()
	for i := 0; i < 6; i++ {
		blk := f.NewBlock()
		for j := 0; j < 4; j++ {
			blk.Regular(4)
		}
		if i == 5 {
			blk.Jump(0)
		} else {
			blk.Cond(int32(i+1), 128, false)
		}
	}
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	branchA := p.Instrs[p.Blocks[5].Last].ID

	prof := &profile.Profile{
		BlockExecs: make([]int64, len(p.Blocks)),
		MissCounts: map[int32]int64{branchA: 6},
	}
	// Blocks: 0=entry, 1=B, 2=C, 3=D, 4=E, 5=A's block.
	prof.BlockExecs[1] = 16
	prof.BlockExecs[2] = 8
	prof.BlockExecs[3] = 6
	prof.BlockExecs[4] = 3
	prof.BlockExecs[5] = 6

	missCycle := 1000.0
	add := func(blks ...int32) {
		var window []profile.Record
		for _, blk := range blks {
			window = append(window, profile.Record{FromBlock: blk, ToBlock: blk, Cycle: missCycle - 25})
		}
		prof.AddSample(branchA, missCycle, window)
		missCycle += 100
	}
	add(1, 2) // miss 1: B and C precede
	add(3, 4) // miss 2: D and E
	add(3, 4) // miss 3
	add(1, 2) // miss 4
	add(1, 2) // miss 5
	add(1, 2) // miss 6
	return p, prof, branchA
}

func exampleConfig() Config {
	cfg := DefaultConfig()
	cfg.MinMissCount = 1
	cfg.MaxSitesPerBranch = 2
	return cfg
}

func TestPaperExampleSelection(t *testing.T) {
	p, prof, branchA := paperExample(t)
	an, err := Analyze(p, prof, exampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The paper selects C (P=0.5, covering misses 1,4,5,6) and E
	// (P=0.66, covering 2,3). Greedy set cover picks C first (4 new
	// samples) then E (2 new samples).
	if len(an.Placements) != 2 {
		t.Fatalf("placements = %d, want 2", len(an.Placements))
	}
	gotBlocks := map[int32]float64{}
	for _, pl := range an.Placements {
		if pl.Branch != branchA {
			t.Fatal("placement for wrong branch")
		}
		gotBlocks[pl.Block] = pl.Probability
	}
	pC, okC := gotBlocks[2]
	pE, okE := gotBlocks[4]
	if !okC || !okE {
		t.Fatalf("selected blocks %v, want C(2) and E(4)", gotBlocks)
	}
	if math.Abs(pC-0.5) > 1e-9 {
		t.Fatalf("P(C) = %f, want 0.5", pC)
	}
	if math.Abs(pE-2.0/3) > 1e-9 {
		t.Fatalf("P(E) = %f, want 0.66", pE)
	}
	// All six misses covered.
	if an.CoveredMissCount != 6 {
		t.Fatalf("covered = %d, want 6", an.CoveredMissCount)
	}
}

func TestMinProbabilityFilter(t *testing.T) {
	p, prof, _ := paperExample(t)
	cfg := exampleConfig()
	cfg.MinProbability = 0.9 // nothing qualifies
	an, err := Analyze(p, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Placements) != 0 {
		t.Fatalf("placements = %d, want 0 under a 0.9 threshold", len(an.Placements))
	}
	if an.LowProbability != 1 {
		t.Fatalf("LowProbability = %d, want 1", an.LowProbability)
	}
}

func TestPrefetchDistanceFilter(t *testing.T) {
	p, prof, _ := paperExample(t)
	cfg := exampleConfig()
	cfg.PrefetchDistance = 30 // samples only precede by 25 cycles
	an, err := Analyze(p, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Placements) != 0 {
		t.Fatal("untimely candidates accepted")
	}
	if an.NoCandidate != 1 {
		t.Fatalf("NoCandidate = %d, want 1", an.NoCandidate)
	}
}

func TestNearestSiteAblation(t *testing.T) {
	p, prof, _ := paperExample(t)
	cfg := exampleConfig()
	cfg.NearestSite = true
	an, err := Analyze(p, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The locality-only heuristic picks exactly one site: the block
	// covering the most samples regardless of probability (B or C,
	// both cover 4).
	if len(an.Placements) != 1 {
		t.Fatalf("nearest-site placements = %d, want 1", len(an.Placements))
	}
	if blk := an.Placements[0].Block; blk != 1 && blk != 2 {
		t.Fatalf("nearest-site chose block %d, want B(1) or C(2)", blk)
	}
}

func TestInjectionPlanApplies(t *testing.T) {
	p, prof, branchA := paperExample(t)
	an, err := Analyze(p, prof, exampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.Inject(an.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if q.InjectedInstrs() == 0 {
		t.Fatal("no instructions injected")
	}
	// The injected instructions must reference branch A: either a
	// brprefetch targeting it or a brcoalesce whose table holds it.
	found := false
	for i := range q.Instrs {
		in := &q.Instrs[i]
		if in.Kind == isa.KindBrPrefetch && in.Target == branchA {
			found = true
		}
		if in.Kind == isa.KindBrCoalesce {
			for _, pair := range q.CoalesceTable {
				if pair.Branch == branchA {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no injected instruction prefetches branch A")
	}
}

func TestOffsetHistogramsFilled(t *testing.T) {
	p, prof, _ := paperExample(t)
	an, err := Analyze(p, prof, exampleConfig())
	if err != nil {
		t.Fatal(err)
	}
	var branchTotal, targetTotal int64
	for i := range an.BranchOffsetBits {
		branchTotal += an.BranchOffsetBits[i]
		targetTotal += an.TargetOffsetBits[i]
	}
	if branchTotal != int64(len(an.Placements)) || targetTotal != int64(len(an.Placements)) {
		t.Fatal("offset histograms do not cover all placements")
	}
}

func TestCoalesceGroupingWindows(t *testing.T) {
	// Many entries at one site must group into brcoalesce ops whose
	// masks span at most CoalesceMaskBits consecutive table slots.
	b := program.NewBuilder(0x400000)
	f := b.NewFunc()
	entry := f.NewBlock()
	entry.Regular(4)
	// 20 conditional branches in consecutive blocks.
	for i := 0; i < 20; i++ {
		blk := f.NewBlock()
		blk.Regular(4)
		blk.Cond(int32(i+1), 128, false)
	}
	f.NewBlock().Return()
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}

	prof := &profile.Profile{
		BlockExecs: make([]int64, len(p.Blocks)),
		MissCounts: map[int32]int64{},
	}
	prof.BlockExecs[0] = 10
	missCycle := 1000.0
	for i := 1; i <= 20; i++ {
		br := p.Instrs[p.Blocks[i].Last].ID
		prof.MissCounts[br] = 5
		for k := 0; k < 5; k++ {
			prof.AddSample(br, missCycle, []profile.Record{{FromBlock: 0, ToBlock: 0, Cycle: missCycle - 30}})
			missCycle += 50
		}
	}

	cfg := DefaultConfig()
	cfg.MinMissCount = 1
	cfg.MaxPrefetchesPerSite = 64
	an, err := Analyze(p, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All 20 entries share site block 0 => multi-entry coalescing puts
	// them all in the table.
	if len(an.Plan.Table) != 20 {
		t.Fatalf("table entries = %d, want 20", len(an.Plan.Table))
	}
	var ops int
	for _, inj := range an.Plan.Injections {
		for _, op := range inj.Coalesces {
			ops++
			if op.Mask == 0 {
				t.Fatal("empty mask emitted")
			}
			hi := 63
			for ; hi >= 0; hi-- {
				if op.Mask&(1<<uint(hi)) != 0 {
					break
				}
			}
			if hi >= cfg.CoalesceMaskBits {
				t.Fatalf("mask %b spans %d bits, cap %d", op.Mask, hi+1, cfg.CoalesceMaskBits)
			}
		}
	}
	// 20 consecutive slots with an 8-bit window = ceil(20/8) = 3 ops.
	if ops != 3 {
		t.Fatalf("coalesce ops = %d, want 3", ops)
	}
	// The table must be sorted by branch PC.
	for i := 1; i < len(an.Plan.Table); i++ {
		if p.PCOf(an.Plan.Table[i-1].Branch) >= p.PCOf(an.Plan.Table[i].Branch) {
			t.Fatal("coalesce table not sorted by branch PC")
		}
	}
}

func TestDisableCoalescing(t *testing.T) {
	p, prof, _ := paperExample(t)
	cfg := exampleConfig()
	cfg.DisableCoalescing = true
	an, err := Analyze(p, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Plan.Table) != 0 {
		t.Fatal("coalesce table built with coalescing disabled")
	}
	for _, inj := range an.Plan.Injections {
		if len(inj.Coalesces) != 0 {
			t.Fatal("coalesce ops emitted with coalescing disabled")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	p, prof, _ := paperExample(t)
	cfg := exampleConfig()
	cfg.OffsetBits = 0
	if _, err := Analyze(p, prof, cfg); err == nil {
		t.Fatal("zero offset width accepted")
	}
	cfg = exampleConfig()
	cfg.CoalesceMaskBits = 65
	if _, err := Analyze(p, prof, cfg); err == nil {
		t.Fatal("65-bit mask accepted")
	}
	prof.BlockExecs = prof.BlockExecs[:len(prof.BlockExecs)-1]
	if _, err := Analyze(p, prof, exampleConfig()); err == nil {
		t.Fatal("profile of a binary with fewer blocks accepted")
	}
}

func TestCoverageTargetCutsTail(t *testing.T) {
	// Two branches: one with 98 misses, one with 2. A 0.9 coverage
	// target must keep only the head branch.
	b := program.NewBuilder(0x400000)
	f := b.NewFunc()
	e := f.NewBlock()
	e.Regular(4)
	for i := 0; i < 2; i++ {
		blk := f.NewBlock()
		blk.Regular(4)
		blk.Cond(int32(i+1), 128, false)
	}
	f.NewBlock().Return()
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	hot := p.Instrs[p.Blocks[1].Last].ID
	cold := p.Instrs[p.Blocks[2].Last].ID
	prof := &profile.Profile{
		BlockExecs: make([]int64, len(p.Blocks)),
		MissCounts: map[int32]int64{hot: 98, cold: 2},
	}
	prof.BlockExecs[0] = 100
	addSamples := func(br int32, n int) {
		for k := 0; k < n; k++ {
			prof.AddSample(br, float64(1000+k*40), []profile.Record{{FromBlock: 0, ToBlock: 0, Cycle: float64(1000 + k*40 - 30)}})
		}
	}
	addSamples(hot, 98)
	addSamples(cold, 2)

	cfg := DefaultConfig()
	cfg.MinMissCount = 1
	cfg.CoverageTarget = 0.9
	an, err := Analyze(p, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range an.Placements {
		if pl.Branch == cold {
			t.Fatal("tail branch received a site despite the coverage cutoff")
		}
	}
}

func TestAnalyzeArbitraryProfilesProperty(t *testing.T) {
	// Property: for any program and any structurally-valid profile, the
	// analysis must succeed, equal the map-based reference exactly under
	// every equivalence config, and produce a plan the relinker accepts,
	// with every placement naming a real direct branch and a real block.
	check := func(seed uint64) bool {
		if err := checkEquivalence(seed); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// FuzzAnalyzeEquivalence explores the same generator as the property
// test: Analyze must equal referenceAnalyze on every drawn case, on
// cold calls and on calls that reuse a memoized selection.
func FuzzAnalyzeEquivalence(f *testing.F) {
	for _, seed := range []uint64{1, 2, 7, 42, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if err := checkEquivalence(seed); err != nil {
			t.Fatal(err)
		}
		if err := checkWarmPath(seed); err != nil {
			t.Fatal(err)
		}
	})
}

// checkWarmPath analyzes randomCase(seed) under three configurations
// drawn from the seed that share selection fields and draw every field
// step 3 reads afresh. The second and third calls reuse the first's
// selection; each result must equal the reference's.
func checkWarmPath(seed uint64) error {
	p, prof, err := randomCase(seed)
	if err != nil {
		return err
	}
	r := rng.New(^seed)
	base := DefaultConfig()
	base.PrefetchDistance = float64(r.Intn(60))
	base.MinProbability = []float64{0, 0.08, 0.3}[r.Intn(3)]
	base.MinMissCount = int64(r.Intn(4))
	base.MaxSitesPerBranch = r.Intn(5)
	base.CoverageTarget = []float64{0, 0.5, 0.995}[r.Intn(3)]
	base.NearestSite = r.Bool(0.2)
	for i := 0; i < 3; i++ {
		cfg := base
		cfg.OffsetBits = 1 + r.Intn(48)
		cfg.CoalesceMaskBits = 1 + r.Intn(64)
		cfg.DisableCoalescing = r.Bool(0.3)
		cfg.MaxPrefetchesPerSite = r.Intn(6)
		if i > 0 && !memoHolds(prof, cfg) {
			return fmt.Errorf("warm config %d: the first call's selection is not in the table", i)
		}
		an, err := Analyze(p, prof, cfg)
		if err != nil {
			return fmt.Errorf("warm config %d: %v", i, err)
		}
		ref, err := referenceAnalyze(p, prof, cfg)
		if err != nil {
			return fmt.Errorf("warm config %d: reference: %v", i, err)
		}
		if !reflect.DeepEqual(an, ref) {
			return fmt.Errorf("warm config %d (%+v): analysis differs from the reference", i, cfg)
		}
		if _, err := p.Inject(an.Plan); err != nil {
			return fmt.Errorf("warm config %d: inject: %v", i, err)
		}
	}
	return nil
}

// memoHolds reports whether the table has prof's selection under cfg.
func memoHolds(prof *profile.Profile, cfg Config) bool {
	memo.Lock()
	defer memo.Unlock()
	return find(memoKey{digest: digest(prof), cfg: cfg.selectConfig()}) != nil
}

// equivalenceConfigs are the configurations Analyze is compared with
// the reference under: fig27's seven mask widths, then one change at a
// time to the paper's operating point, then the operating point itself.
func equivalenceConfigs() []Config {
	var cfgs []Config
	for _, w := range []int{1, 2, 4, 8, 16, 32, 64} {
		cfg := DefaultConfig()
		cfg.CoalesceMaskBits = w
		cfgs = append(cfgs, cfg)
	}
	for _, vary := range []func(*Config){
		func(c *Config) { c.NearestSite = true },
		func(c *Config) { c.DisableCoalescing = true },
		func(c *Config) { c.MaxSitesPerBranch = 1 },
		func(c *Config) { c.PrefetchDistance = 0 },
		func(c *Config) { c.PrefetchDistance = 50 },
		func(c *Config) { c.MinProbability = 0 },
		func(c *Config) { c.CoverageTarget = 0 },
		func(c *Config) { c.MinMissCount = 5 },
		func(*Config) {},
	} {
		cfg := DefaultConfig()
		vary(&cfg)
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// randomCase draws a linked program of one to three functions and a
// structurally valid profile over it. Samples concentrate on a few hot
// branches, so most branches that miss have several; miss counts
// exceed sample counts (sampling) and name some unsampled branches;
// some blocks never execute; LBR records have distinct endpoints and
// may repeat a block within one history.
func randomCase(seed uint64) (*program.Program, *profile.Profile, error) {
	r := rng.New(seed)
	b := program.NewBuilder(0x400000)
	nFuncs := 1 + r.Intn(3)
	for fi := 0; fi < nFuncs; fi++ {
		f := b.NewFunc()
		blocks := 4 + r.Intn(12)
		for i := 0; i < blocks; i++ {
			blk := f.NewBlock()
			for k := 0; k < 1+r.Intn(4); k++ {
				blk.Regular(2 + r.Intn(5))
			}
			switch {
			case i+1 < blocks && r.Bool(0.6):
				blk.Cond(int32(i+1), uint8(r.Intn(256)), false)
			case fi+1 < nFuncs && r.Bool(0.3):
				blk.Call(int32(fi + 1))
			}
		}
		f.NewBlock().Return()
	}
	p, err := b.Link()
	if err != nil {
		return nil, nil, err
	}

	prof := &profile.Profile{
		BlockExecs: make([]int64, len(p.Blocks)),
		MissCounts: map[int32]int64{},
	}
	for i := range prof.BlockExecs {
		if !r.Bool(0.15) {
			prof.BlockExecs[i] = int64(1 + r.Intn(50))
		}
	}
	var branches []int32
	for i := range p.Instrs {
		if p.Instrs[i].Kind.IsDirect() {
			branches = append(branches, p.Instrs[i].ID)
		}
	}
	if len(branches) == 0 {
		return p, prof, nil
	}
	hot := branches[:1+r.Intn(min(4, len(branches)))]
	block := func() int32 { return int32(r.Intn(len(p.Blocks))) }
	missCycle := 500.0
	nSamples := 1 + r.Intn(40)
	for s := 0; s < nSamples; s++ {
		br := branches[r.Intn(len(branches))]
		if r.Bool(0.7) {
			br = hot[r.Intn(len(hot))]
		}
		prof.MissCounts[br] += int64(1 + r.Intn(3))
		var hist []profile.Record
		for h := r.Intn(8); h > 0; h-- {
			rec := profile.Record{FromBlock: block(), ToBlock: block(), Cycle: missCycle - float64(r.Intn(70))}
			if len(hist) > 0 && r.Bool(0.3) {
				rec.FromBlock = hist[r.Intn(len(hist))].ToBlock
			}
			hist = append(hist, rec)
		}
		prof.AddSample(br, missCycle, hist)
		missCycle += float64(10 + r.Intn(100))
	}
	for k := r.Intn(3); k > 0; k-- {
		prof.MissCounts[branches[r.Intn(len(branches))]] += int64(1 + r.Intn(4))
	}
	return p, prof, nil
}

// checkEquivalence analyzes randomCase(seed) under every equivalence
// config and checks the result against the reference and the relinker.
func checkEquivalence(seed uint64) error {
	p, prof, err := randomCase(seed)
	if err != nil {
		return err
	}
	for i, cfg := range equivalenceConfigs() {
		an, err := Analyze(p, prof, cfg)
		if err != nil {
			return fmt.Errorf("config %d: %v", i, err)
		}
		ref, err := referenceAnalyze(p, prof, cfg)
		if err != nil {
			return fmt.Errorf("config %d: reference: %v", i, err)
		}
		if !reflect.DeepEqual(an, ref) {
			return fmt.Errorf("config %d (%+v): analysis differs from the reference", i, cfg)
		}
		for _, pl := range an.Placements {
			if p.IndexOf(pl.Branch) < 0 {
				return fmt.Errorf("config %d: placement names unknown branch %d", i, pl.Branch)
			}
			if pl.Block < 0 || int(pl.Block) >= len(p.Blocks) {
				return fmt.Errorf("config %d: placement names unknown block %d", i, pl.Block)
			}
			if pl.Probability < 0 || pl.Probability > 1 {
				return fmt.Errorf("config %d: probability %v", i, pl.Probability)
			}
		}
		q, err := p.Inject(an.Plan)
		if err != nil {
			return fmt.Errorf("config %d: inject: %v", i, err)
		}
		if err := q.Validate(); err != nil {
			return fmt.Errorf("config %d: %v", i, err)
		}
	}
	return nil
}

func TestReorderedBranchOffsets(t *testing.T) {
	// On a re-laid-out binary, a placement's site→branch offset is
	// measured from the block whose stable ID is Placement.Block, not
	// from whatever block now sits at that layout index.
	moved := 0
	for seed := uint64(1); seed <= 60; seed++ {
		p, prof, err := randomCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int32, len(p.Funcs))
		for i := range order {
			order[i] = int32(len(order) - 1 - i)
		}
		q, err := p.ReorderFunctions(order)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MinProbability = 0
		an, err := Analyze(q, prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range an.Placements {
			var site *program.Block
			for bi := range q.Blocks {
				if q.Blocks[bi].ID == pl.Block {
					site = &q.Blocks[bi]
				}
			}
			want := int64(q.PCOf(pl.Branch)) - int64(q.Instrs[site.First].PC)
			if pl.BranchOffset != want {
				t.Fatalf("seed %d: branch %d from block %d: offset %d, want %d", seed, pl.Branch, pl.Block, pl.BranchOffset, want)
			}
			if q.Blocks[pl.Block].ID != pl.Block {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatal("no placement landed in a moved block; the test checks nothing")
	}
}

// TestCheckProfileNamesFirstWindowHolder corrupts one log record that
// several collected windows share: the error names the first sample
// whose window holds it, as when every sample had its own copy. A bad
// record no window holds is still an error.
func TestCheckProfileNamesFirstWindowHolder(t *testing.T) {
	p, _, _ := paperExample(t)
	branch := p.Blocks[5].Last // the jump at block A
	c := profile.NewCollector(p, 1)
	for s := 0; s < 3; s++ {
		for k := 0; k < 4; k++ {
			c.Taken(p.Blocks[1].Last, p.Blocks[2].First, float64(100*s+k))
		}
		c.BTBMiss(0, float64(100*s+50), branch, 0, "jump")
	}
	prof := c.Finish(1000)
	if _, err := Analyze(p, prof, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// Sample 1's newest record was taken after sample 0's snapshot,
	// and sample 2's window holds it too.
	win := prof.Window(1)
	win[len(win)-1].ToBlock = 1 << 30
	if _, err := Analyze(p, prof, DefaultConfig()); err == nil || !strings.Contains(err.Error(), "sample 1:") {
		t.Fatalf("error %v does not name sample 1", err)
	}

	orphan := &profile.Profile{BlockExecs: make([]int64, len(p.Blocks)), MissCounts: map[int32]int64{}}
	orphan.AddSample(p.Instrs[branch].ID, 50, []profile.Record{{FromBlock: -1, ToBlock: 0, Cycle: 1}})
	orphan.Samples = nil
	if _, err := Analyze(p, orphan, DefaultConfig()); err == nil || !strings.Contains(err.Error(), "log record 0") {
		t.Fatalf("error %v does not name the orphaned log record", err)
	}
}
