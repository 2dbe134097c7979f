package twigopt

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"twig/internal/btb"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
	"twig/internal/profile"
	"twig/internal/program"
	"twig/internal/workload"
)

// workloadProfile builds wordpress and collects a training profile of a
// short window: enough sampled branches that sites share blocks, some
// offsets do not fit and the coalesce table has ties.
func workloadProfile(t *testing.T) (*program.Program, *profile.Profile) {
	t.Helper()
	params, err := workload.ParamsFor(workload.WordPress)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Build(params)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.MaxInstructions = 200_000
	cfg.BackendCPI = params.BackendCPI
	cfg.CondMispredictRate = params.CondMispredictRate
	cfg.Scheme = prefetcher.NewBaseline(btb.Config{Entries: 2048, Ways: 4}, 0, false)
	prof, _, err := profile.Collect(p, params.InputPhase(0, 0), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p, prof
}

// encodingConfigs are configurations that share the paper operating
// point's selection: fig27's seven mask widths, then one change at a
// time to each field only step 3 reads.
func encodingConfigs() []Config {
	var cfgs []Config
	for _, w := range []int{1, 2, 4, 8, 16, 32, 64} {
		cfg := DefaultConfig()
		cfg.CoalesceMaskBits = w
		cfgs = append(cfgs, cfg)
	}
	for _, vary := range []func(*Config){
		func(c *Config) { c.DisableCoalescing = true },
		func(c *Config) { c.OffsetBits = 8 },
		func(c *Config) { c.OffsetBits = 20 },
		func(c *Config) { c.MaxPrefetchesPerSite = 1 },
		func(c *Config) { c.MaxPrefetchesPerSite = 0 },
	} {
		cfg := DefaultConfig()
		vary(&cfg)
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// TestWarmEqualsCold: with the selection memoized, every configuration
// that shares it returns exactly what a cold call returns, whatever
// ran before it.
func TestWarmEqualsCold(t *testing.T) {
	p, prof := workloadProfile(t)
	cfgs := encodingConfigs()
	cold := make([]*Analysis, len(cfgs))
	for i, cfg := range cfgs {
		ResetMemo()
		an, err := Analyze(p, prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = an
	}
	if n := len(cold[3].Placements); n < 100 || len(cold[3].Plan.Table) == 0 {
		t.Fatalf("%d placements, %d table entries: the profile exercises too little", n, len(cold[3].Plan.Table))
	}
	ResetMemo()
	// Twice through, forwards then backwards, every call after the
	// first is a memo hit that follows a different configuration.
	for _, order := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, {11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}} {
		for _, i := range order {
			an, err := Analyze(p, prof, cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(an, cold[i]) {
				t.Fatalf("config %d (%+v): warm analysis differs from the cold one", i, cfgs[i])
			}
		}
	}
	if n := len(memo.entries); n != 1 {
		t.Fatalf("table holds %d selections after configs that share one", n)
	}
}

// cloneProfile returns a deep copy of prof.
func cloneProfile(prof *profile.Profile) *profile.Profile {
	cp := *prof
	cp.Log = slices.Clone(prof.Log)
	cp.Samples = slices.Clone(prof.Samples)
	cp.BlockExecs = slices.Clone(prof.BlockExecs)
	cp.MissCounts = make(map[int32]int64, len(prof.MissCounts))
	for k, v := range prof.MissCounts {
		cp.MissCounts[k] = v
	}
	return &cp
}

// TestEqualContentSharesSelection: the table is keyed by content, so a
// copy of a profile (as a cache load or a rebuilt artifact produces)
// reuses the original's selection.
func TestEqualContentSharesSelection(t *testing.T) {
	p, prof := workloadProfile(t)
	ResetMemo()
	want, err := Analyze(p, prof, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel := memo.entries[0].sel
	got, err := Analyze(p, cloneProfile(prof), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(memo.entries) != 1 || memo.entries[0].sel != sel {
		t.Fatal("a copy of the profile was selected again")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the copy's analysis differs")
	}
}

// TestInPlaceEditSelectsAgain: a profile edited in place is a new key,
// so the analysis follows the edit rather than the earlier selection.
func TestInPlaceEditSelectsAgain(t *testing.T) {
	p, prof, _ := paperExample(t)
	cfg := exampleConfig()
	for _, edit := range []struct {
		name string
		do   func(*profile.Profile)
	}{
		// C(2) executes ten times as often: P(C) = 0.05 falls below
		// the threshold, and B takes its samples.
		{"BlockExecs", func(prof *profile.Profile) { prof.BlockExecs[2] *= 10 }},
		// Without miss 2, E covers one sample of five, too few for a
		// second site.
		{"Samples", func(prof *profile.Profile) { prof.Samples = slices.Delete(prof.Samples, 1, 2) }},
	} {
		t.Run(edit.name, func(t *testing.T) {
			prof := cloneProfile(prof)
			ResetMemo()
			before, err := Analyze(p, prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			edit.do(prof)
			after, err := Analyze(p, prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceAnalyze(p, prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(before, ref) {
				t.Fatal("the edit does not change the analysis; the test checks nothing")
			}
			if !reflect.DeepEqual(after, ref) {
				t.Fatal("analysis after the edit differs from the reference")
			}
		})
	}
}

// TestKeyHoldsEverySelectionField: for each field selection reads, two
// configurations that differ only in it select differently, and each
// matches the reference when the other ran just before it.
func TestKeyHoldsEverySelectionField(t *testing.T) {
	p, prof, _ := paperExample(t)
	for _, tc := range []struct {
		field string
		vary  func(*Config)
	}{
		{"PrefetchDistance", func(c *Config) { c.PrefetchDistance = 30 }},
		{"MinProbability", func(c *Config) { c.MinProbability = 0.9 }},
		{"MinMissCount", func(c *Config) { c.MinMissCount = 7 }},
		{"MaxSitesPerBranch", func(c *Config) { c.MaxSitesPerBranch = 1 }},
		{"CoverageTarget", func(c *Config) { c.CoverageTarget = 0.1 }},
		{"NearestSite", func(c *Config) { c.NearestSite = true }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			a := exampleConfig()
			b := a
			tc.vary(&b)
			var refs [2]*Analysis
			for i, cfg := range []Config{a, b} {
				ref, err := referenceAnalyze(p, prof, cfg)
				if err != nil {
					t.Fatal(err)
				}
				refs[i] = ref
			}
			if reflect.DeepEqual(refs[0], refs[1]) {
				t.Fatalf("%s does not change the analysis; the test checks nothing", tc.field)
			}
			for _, order := range [][2]int{{0, 1}, {1, 0}} {
				ResetMemo()
				for _, i := range order {
					an, err := Analyze(p, prof, []Config{a, b}[i])
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(an, refs[i]) {
						t.Fatalf("order %v: config %d differs from the reference", order, i)
					}
				}
			}
		})
	}
}

// TestConcurrentAnalyze runs many Analyze calls at once over two
// profiles and several configurations that share selections; under
// -race it also checks the table's locking and that step 3 only reads
// the shared sites.
func TestConcurrentAnalyze(t *testing.T) {
	type job struct {
		p    *program.Program
		prof *profile.Profile
		cfg  Config
		want *Analysis
	}
	var jobs []job
	for _, seed := range []uint64{3, 11} {
		p, prof, err := randomCase(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range append(encodingConfigs(), equivalenceConfigs()...) {
			want, err := referenceAnalyze(p, prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{p, prof, cfg, want})
		}
	}
	ResetMemo()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range jobs {
				j := jobs[(k*7+g*5)%len(jobs)]
				an, err := Analyze(j.p, j.prof, j.cfg)
				if err == nil && !reflect.DeepEqual(an, j.want) {
					err = fmt.Errorf("goroutine %d: config %+v differs from the reference", g, j.cfg)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTableBounded: however many distinct selections run, the table
// keeps at most memoSize, the most recently used ones.
func TestTableBounded(t *testing.T) {
	p, prof, _ := paperExample(t)
	ResetMemo()
	cfg := exampleConfig()
	kept := cfg // used again after every insertion, so never evicted
	for i := 0; i < 3*memoSize; i++ {
		cfg.PrefetchDistance = float64(i)
		for _, c := range []Config{cfg, kept} {
			an, err := Analyze(p, prof, c)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := referenceAnalyze(p, prof, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(an, ref) {
				t.Fatalf("distance %v: analysis differs from the reference", c.PrefetchDistance)
			}
		}
		if n := len(memo.entries); n > memoSize {
			t.Fatalf("table holds %d selections, bound %d", n, memoSize)
		}
	}
	if n := len(memo.entries); n != memoSize {
		t.Fatalf("table holds %d selections after %d distinct ones, want %d", n, 3*memoSize, memoSize)
	}
	if memo.entries[len(memo.entries)-1].key.cfg != kept.selectConfig() {
		t.Fatal("the most recently used selection is not last")
	}
}

// TestDigestCoversSelectionInputs: changing any one value selection
// reads changes the digest, and a profile's content, not its identity,
// determines it.
func TestDigestCoversSelectionInputs(t *testing.T) {
	_, prof, _ := paperExample(t)
	base := digest(prof)
	if digest(cloneProfile(prof)) != base {
		t.Fatal("a copy digests differently")
	}
	for _, edit := range []struct {
		name string
		do   func(*profile.Profile)
	}{
		{"Log.FromBlock", func(p *profile.Profile) { p.Log[3].FromBlock++ }},
		{"Log.ToBlock", func(p *profile.Profile) { p.Log[3].ToBlock++ }},
		{"Log.Cycle", func(p *profile.Profile) { p.Log[3].Cycle += 0.5 }},
		{"Samples.Branch", func(p *profile.Profile) { p.Samples[2].Branch++ }},
		{"Samples.MissCycle", func(p *profile.Profile) { p.Samples[2].MissCycle++ }},
		{"Samples.End", func(p *profile.Profile) { p.Samples[2].End-- }},
		{"Samples.Len", func(p *profile.Profile) { p.Samples[2].Len-- }},
		{"Samples dropped", func(p *profile.Profile) { p.Samples = p.Samples[:len(p.Samples)-1] }},
		{"BlockExecs", func(p *profile.Profile) { p.BlockExecs[4]++ }},
		{"MissCounts value", func(p *profile.Profile) {
			for k := range p.MissCounts {
				p.MissCounts[k]++
			}
		}},
		{"MissCounts key", func(p *profile.Profile) { p.MissCounts[12345] = 0 }},
	} {
		cp := cloneProfile(prof)
		edit.do(cp)
		if digest(cp) == base {
			t.Errorf("%s: edit leaves the digest unchanged", edit.name)
		}
	}
}
