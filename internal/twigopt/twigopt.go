// Package twigopt implements Twig's offline profile analysis and
// link-time injection planning (§3 of the paper):
//
//  1. For every branch with sampled BTB misses, candidate injection
//     sites are the basic blocks that precede the miss by at least the
//     prefetch distance (in cycles), reconstructed from the LBR-style
//     history of each sample (Fig. 13a).
//  2. For each candidate block B and missed branch A, the conditional
//     probability P(miss at A | B executed) = timely-coverable misses
//     of A from B ÷ total executions of B (Fig. 13b). The block with
//     the highest probability wins; sites below a minimum probability
//     are dropped (some misses have no accurate predecessor — one of
//     the reasons Twig cannot reach the full ideal-BTB speedup).
//  3. Each accepted (site, branch) pair is encoded either as a
//     brprefetch instruction — when both the site→branch and
//     branch→target deltas fit the 12-bit signed offsets (Figs. 14-15)
//     — or as an entry in the sorted key-value table reached by a
//     brcoalesce instruction with an 8-bit spatial bitmask (§3.2).
package twigopt

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"twig/internal/isa"
	"twig/internal/profile"
	"twig/internal/program"
)

// Config parameterizes the analysis.
type Config struct {
	// PrefetchDistance is the minimum number of cycles a candidate
	// block must precede the miss (the paper uses 20 and sweeps 0-50 in
	// Fig. 26).
	PrefetchDistance float64
	// MinProbability drops injection sites whose conditional
	// probability of predicting the miss is below this threshold.
	MinProbability float64
	// MinMissCount ignores branches with fewer sampled misses — they
	// cannot amortize a prefetch site.
	MinMissCount int64
	// MaxSitesPerBranch bounds how many injection sites one missed
	// branch may receive. The paper's worked example (Fig. 13) covers
	// one branch from two different predecessors (C and E) because
	// different dynamic paths reach the miss; greedy set cover over the
	// branch's samples picks them.
	MaxSitesPerBranch int
	// OffsetBits is the signed width of brprefetch's two offset fields
	// (the paper uses 12).
	OffsetBits int
	// CoalesceMaskBits is the brcoalesce bitmask width (the paper
	// settles on 8; Fig. 27 sweeps 1-64).
	CoalesceMaskBits int
	// CoverageTarget stops issuing sites once branches covering this
	// fraction of sampled miss volume have been processed (branches are
	// handled in decreasing miss count). The long tail of
	// rarely-missing branches adds code bloat out of proportion to its
	// coverage.
	CoverageTarget float64
	// DisableCoalescing drops too-large-to-encode entries instead of
	// placing them in the coalesce table, and emits every fitting entry
	// as its own brprefetch — the "software BTB prefetching only"
	// configuration of Fig. 18. With coalescing on, a site with two or
	// more entries routes all of them through the key-value table and
	// one brcoalesce per mask window, which is the §3.2 mechanism for
	// containing static and dynamic instruction overhead.
	DisableCoalescing bool
	// MaxPrefetchesPerSite caps injected instructions per basic block
	// to bound code bloat at pathological join points.
	MaxPrefetchesPerSite int
	// NearestSite replaces the conditional-probability site selection
	// with "nearest timely predecessor" — an ablation of the paper's
	// key accuracy mechanism.
	NearestSite bool
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		PrefetchDistance:     20,
		MinProbability:       0.08,
		MinMissCount:         1,
		MaxSitesPerBranch:    4,
		CoverageTarget:       0.995,
		OffsetBits:           isa.OffsetBits,
		CoalesceMaskBits:     isa.CoalesceMaskBits,
		MaxPrefetchesPerSite: 24,
	}
}

// Placement records where one missed branch's prefetch was placed, for
// tests and the worked-example experiment (Fig. 13).
type Placement struct {
	// Branch is the stable ID of the covered branch.
	Branch int32
	// Block is the stable ID of the chosen injection block.
	Block int32
	// Probability is the winning conditional probability.
	Probability float64
	// Coalesced reports whether the entry went to the key-value table.
	Coalesced bool
	// BranchOffset and TargetOffset are the post-analysis deltas
	// (site→branch and branch→target) whose encodability decided
	// Coalesced.
	BranchOffset, TargetOffset int64
}

// Analysis is the full result of Analyze: the injection plan plus the
// statistics the paper's figures report.
type Analysis struct {
	// Plan is what Program.Inject consumes.
	Plan *program.InjectionPlan
	// Placements lists one entry per covered branch.
	Placements []Placement
	// CoveredMissCount is the number of sampled misses whose branch
	// received a prefetch site.
	CoveredMissCount int64
	// TotalMissCount is the number of sampled misses considered.
	TotalMissCount int64
	// NoCandidate counts branches dropped for lack of a timely
	// predecessor; LowProbability counts branches dropped by the
	// accuracy threshold.
	NoCandidate, LowProbability int
	// BranchOffsetBits and TargetOffsetBits are histograms (indexed by
	// required signed bit-width, capped at 48) over covered branches —
	// the CDFs of Figs. 14 and 15.
	BranchOffsetBits, TargetOffsetBits [49]int64
}

// Analyze runs the paper's §3 pipeline on a profile of p and returns
// the injection plan. p must be the unmodified (profiled) binary,
// possibly re-laid-out by Program.ReorderFunctions. A profile that
// names a branch or block p does not have is an error.
func Analyze(p *program.Program, prof *profile.Profile, cfg Config) (*Analysis, error) {
	if cfg.OffsetBits <= 0 || cfg.OffsetBits > 48 {
		return nil, fmt.Errorf("twigopt: offset width %d out of range", cfg.OffsetBits)
	}
	if cfg.CoalesceMaskBits < 1 || cfg.CoalesceMaskBits > 64 {
		return nil, fmt.Errorf("twigopt: coalesce mask width %d out of range", cfg.CoalesceMaskBits)
	}
	if err := checkProfile(p, prof); err != nil {
		return nil, err
	}

	an := &Analysis{Plan: &program.InjectionPlan{}}
	for _, n := range prof.MissCounts {
		an.TotalMissCount += n
	}

	type site struct {
		branch int32
		block  int32
		prob   float64
	}
	maxSites := cfg.MaxSitesPerBranch
	if maxSites <= 0 || cfg.NearestSite {
		maxSites = 1
	}
	var sites []site
	var processedMisses int64
	cutoff := int64(float64(an.TotalMissCount) * cfg.CoverageTarget)
	cs := newCandidates(len(p.Blocks))
	var covered []bool
	// Step 1: per missed branch, collect the timely predecessor blocks
	// from its samples. Branches go in decreasing sampled-miss volume,
	// so the CoverageTarget cutoff keeps the head of the distribution
	// and drops the long tail before any of its candidates are built.
	for _, bk := range bucketSamples(p, prof) {
		if cfg.CoverageTarget > 0 && processedMisses >= cutoff {
			break
		}
		processedMisses += bk.misses
		if bk.misses < cfg.MinMissCount {
			continue
		}
		cs.collect(prof, bk.samples, cfg.PrefetchDistance)
		cands := cs.list
		if len(cands) == 0 {
			an.NoCandidate++
			continue
		}
		// Step 2: greedy set cover over this branch's samples: each
		// round picks the candidate block that covers the most
		// still-uncovered samples among blocks meeting the accuracy
		// threshold — the multi-predecessor selection of the paper's
		// Fig. 13 example. The probability's numerator is the block's
		// timely count from the samples; its denominator is the block's
		// whole-run execution count.
		nSamples := len(bk.samples)
		covered = append(covered[:0], make([]bool, nSamples)...)
		nCovered := 0
		accepted := 0
		for round := 0; round < maxSites && nCovered < nSamples; round++ {
			bestIdx := -1
			bestGain := 0
			bestProb := 0.0
			for ci := range cands {
				rec := &cands[ci]
				if rec.count == 0 { // consumed in an earlier round
					continue
				}
				execs := prof.BlockExecs[rec.block]
				if execs == 0 {
					continue
				}
				prob := float64(rec.count) / float64(execs)
				if prob > 1 {
					// A block can precede several distinct misses of
					// the same branch between two of its own executions
					// (loops); clamp for comparability.
					prob = 1
				}
				if !cfg.NearestSite && prob < cfg.MinProbability {
					continue
				}
				gain := 0
				for _, ord := range cs.coverSet(ci) {
					if !covered[ord] {
						gain++
					}
				}
				// Full ties go to the lower block ID, so the choice
				// does not depend on the order candidates were found.
				lower := bestIdx >= 0 && rec.block < cands[bestIdx].block
				better := gain > bestGain || (gain == bestGain && (prob > bestProb || prob == bestProb && lower))
				if cfg.NearestSite {
					// Ablation: ignore probability, prefer the most
					// frequently timely block (locality-only heuristic).
					better = gain > bestGain || (gain == bestGain && lower)
				}
				if better {
					bestIdx, bestGain, bestProb = ci, gain, prob
				}
			}
			// Stop when another site would cover almost nothing new.
			if bestIdx < 0 || bestGain == 0 || (round > 0 && bestGain*40 < nSamples) {
				break
			}
			for _, ord := range cs.coverSet(bestIdx) {
				if !covered[ord] {
					covered[ord] = true
					nCovered++
				}
			}
			cands[bestIdx].count = 0 // consume
			sites = append(sites, site{branch: bk.branch, block: cands[bestIdx].block, prob: bestProb})
			accepted++
		}
		if accepted > 0 {
			// Attribute the branch's miss volume proportionally to the
			// fraction of its samples the chosen sites can reach.
			an.CoveredMissCount += bk.misses * int64(nCovered) / int64(nSamples)
		} else {
			an.LowProbability++
		}
	}

	// Step 3: encode. Offsets are computed on the profiled layout; the
	// relink shifts addresses by the injected bytes (a few percent),
	// which the 12-bit budget absorbs for all but boundary cases —
	// exactly the imprecision a real link-time rewriter faces.
	//
	// Group entries per injection block first: a site with a single
	// encodable entry gets a brprefetch; a site with several entries —
	// or any too-large entry — routes everything through the sorted
	// key-value table and brcoalesce masks, which is how §3.2 contains
	// the code bloat of multi-parameter prefetch instructions.
	type siteEntry struct {
		branch int32
		fits   bool
		prob   float64
	}
	perBlockEntries := make(map[int32][]siteEntry)
	placementsOf := make(map[int32][]int)
	blockOrder := []int32{}
	// Sites are stable block IDs, and p.Blocks is in layout order,
	// which a reordered binary no longer keeps in ID order.
	blockFirst := make([]int32, len(p.Blocks))
	for i := range p.Blocks {
		blockFirst[p.Blocks[i].ID] = p.Blocks[i].First
	}
	for _, st := range sites {
		br := p.InstrByID(st.branch)
		sitePC := p.Instrs[blockFirst[st.block]].PC
		branchOff := int64(br.PC) - int64(sitePC)
		targetOff := int64(p.PCOf(br.Target)) - int64(br.PC)
		bb := isa.SignedBitsFor(branchOff)
		tb := isa.SignedBitsFor(targetOff)
		an.BranchOffsetBits[clampBits(bb)]++
		an.TargetOffsetBits[clampBits(tb)]++
		if _, ok := perBlockEntries[st.block]; !ok {
			blockOrder = append(blockOrder, st.block)
		}
		perBlockEntries[st.block] = append(perBlockEntries[st.block], siteEntry{
			branch: st.branch,
			fits:   bb <= cfg.OffsetBits && tb <= cfg.OffsetBits,
			prob:   st.prob,
		})
		placementsOf[st.branch] = append(placementsOf[st.branch], len(an.Placements))
		an.Placements = append(an.Placements, Placement{
			Branch: st.branch, Block: st.block, Probability: st.prob,
			BranchOffset: branchOff, TargetOffset: targetOff,
		})
	}
	sort.Slice(blockOrder, func(i, j int) bool { return blockOrder[i] < blockOrder[j] })

	perBlock := make(map[int32]*program.Injection)
	var tableEntries []struct {
		pair  program.CoalescePair
		block int32
	}
	markCoalesced := func(branch int32) {
		for _, i := range placementsOf[branch] {
			an.Placements[i].Coalesced = true
		}
	}
	for _, blk := range blockOrder {
		entries := perBlockEntries[blk]
		if n := cfg.MaxPrefetchesPerSite; n > 0 && len(entries) > n {
			entries = entries[:n]
		}
		inj := &program.Injection{Block: blk}
		perBlock[blk] = inj
		coalesceAll := !cfg.DisableCoalescing && len(entries) >= 2
		for _, e := range entries {
			switch {
			case coalesceAll || (!e.fits && !cfg.DisableCoalescing):
				markCoalesced(e.branch)
				tableEntries = append(tableEntries, struct {
					pair  program.CoalescePair
					block int32
				}{program.CoalescePair{Branch: e.branch, Target: p.InstrByID(e.branch).Target}, blk})
			case e.fits:
				inj.Prefetches = append(inj.Prefetches, e.branch)
			default:
				// DisableCoalescing and too large: dropped (uncovered
				// at runtime — the Fig. 18 software-only configuration
				// pays this).
			}
		}
	}

	// Build the sorted coalesce table and per-site mask groups.
	an.Plan.Table = make([]program.CoalescePair, len(tableEntries))
	for i, te := range tableEntries {
		an.Plan.Table[i] = te.pair
	}
	remap := an.Plan.SortTable(p)
	slotsPerBlock := make(map[int32][]int32)
	for i, te := range tableEntries {
		slotsPerBlock[te.block] = append(slotsPerBlock[te.block], remap[i])
	}
	for _, blk := range blockOrder {
		slots := slotsPerBlock[blk]
		if len(slots) == 0 {
			continue
		}
		sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
		inj := perBlock[blk]
		// Greedy spatial grouping: one brcoalesce covers all of this
		// site's slots within a window of CoalesceMaskBits consecutive
		// table entries (entries are PC-sorted, so nearby branches land
		// in the same window — the locality §3.2 exploits).
		for i := 0; i < len(slots); {
			base := slots[i]
			var mask uint64
			j := i
			for ; j < len(slots) && slots[j]-base < int32(cfg.CoalesceMaskBits); j++ {
				mask |= 1 << uint(slots[j]-base)
			}
			inj.Coalesces = append(inj.Coalesces, program.CoalesceOp{Base: base, Mask: mask})
			i = j
		}
	}

	// Emit injections in deterministic block order, skipping blocks
	// whose every entry was dropped.
	for _, blk := range blockOrder {
		inj := perBlock[blk]
		if len(inj.Prefetches) == 0 && len(inj.Coalesces) == 0 {
			continue
		}
		an.Plan.Injections = append(an.Plan.Injections, *inj)
	}
	return an, nil
}

// checkProfile reports a profile that does not fit p: a different
// block count, or the first sample that names a branch p does not have
// or whose LBR window names a block p does not have. A saved profile is
// outside input (profile.Load cannot check it against a binary), and
// Analyze indexes dense arrays by these IDs. Each log record is checked
// once, however many windows share it; only a bad one sends the check
// back through the windows to name its sample.
func checkProfile(p *program.Program, prof *profile.Profile) error {
	nBlocks := len(prof.BlockExecs)
	if nBlocks != len(p.Blocks) {
		return fmt.Errorf("twigopt: profile has %d blocks, binary has %d", nBlocks, len(p.Blocks))
	}
	badBlock := func(rec profile.Record) (int32, bool) {
		for _, blk := range [2]int32{rec.FromBlock, rec.ToBlock} {
			if blk < 0 || int(blk) >= nBlocks {
				return blk, true
			}
		}
		return 0, false
	}
	badLog := -1
	for k, rec := range prof.Log {
		if _, bad := badBlock(rec); bad {
			badLog = k
			break
		}
	}
	for i := range prof.Samples {
		s := &prof.Samples[i]
		if idx := p.IndexOf(s.Branch); idx < 0 || !p.Instrs[idx].Kind.IsDirect() {
			return fmt.Errorf("twigopt: sample %d names branch %d, which is not a direct branch of the binary", i, s.Branch)
		}
		if badLog < 0 {
			continue
		}
		for j, rec := range prof.Window(i) {
			if blk, bad := badBlock(rec); bad {
				return fmt.Errorf("twigopt: sample %d: LBR record %d names block %d, profile has %d blocks",
					i, j, blk, nBlocks)
			}
		}
	}
	if badLog >= 0 {
		blk, _ := badBlock(prof.Log[badLog])
		return fmt.Errorf("twigopt: profile log record %d names block %d, profile has %d blocks",
			badLog, blk, nBlocks)
	}
	return nil
}

// bucket is one missed branch's share of the profile.
type bucket struct {
	branch int32
	// misses is the branch's sampled miss count, prof.MissCounts[branch].
	misses int64
	// samples indexes prof.Samples, in profile order.
	samples []int32
}

// bucketSamples counting-sorts the sample indices by missed branch,
// which keeps profile order within each bucket, and returns the
// buckets in decreasing miss volume (ties by branch ID, so the order
// is total).
func bucketSamples(p *program.Program, prof *profile.Profile) []bucket {
	next := make([]int32, len(p.Instrs)) // per stable ID: count, then fill cursor
	for i := range prof.Samples {
		next[prof.Samples[i].Branch]++
	}
	order := make([]int32, len(prof.Samples))
	var buckets []bucket
	var off int32
	for b, n := range next {
		if n == 0 {
			continue
		}
		br := int32(b)
		buckets = append(buckets, bucket{branch: br, misses: prof.MissCounts[br], samples: order[off : off+n]})
		next[b] = off
		off += n
	}
	for i := range prof.Samples {
		b := prof.Samples[i].Branch
		order[next[b]] = int32(i)
		next[b]++
	}
	slices.SortFunc(buckets, func(x, y bucket) int {
		if c := cmp.Compare(y.misses, x.misses); c != 0 {
			return c
		}
		return cmp.Compare(x.branch, y.branch)
	})
	return buckets
}

// candidate is a block that timely precedes some samples of the branch
// being analyzed.
type candidate struct {
	block int32
	// count is the number of the branch's samples the block timely
	// precedes (its cover-set size); the set cover zeroes it once the
	// block is chosen.
	count int32
}

// candidates collects one branch's candidate blocks at a time. Arrays
// indexed by stable block ID, stamped per branch and per sample, stand
// in for maps keyed by (branch, block): the scratch space is reused
// across branches, and a collect costs only the branch's samples.
type candidates struct {
	// list is the branch's candidates, in the order its samples first
	// reach them.
	list []candidate
	// cover holds every candidate's cover set back to back: the
	// ordinals, within the branch's bucket, of the samples list[c]
	// timely precedes are cover[off[c]:off[c+1]], in increasing order.
	cover, off []int32

	// branch and sample stamp the branch being collected and its
	// current sample; both only grow, so no per-block array is ever
	// cleared.
	branch, sample int32
	branchMark     []int32 // per block: stamp of the branch that last listed it
	sampleMark     []int32 // per block: stamp of the sample that last counted it
	slot           []int32 // per block: position in list, valid while branchMark matches

	hits []hit   // one per counted (candidate, sample), in sample order
	fill []int32 // per candidate: next free position in cover
}

// hit records that list[cand] timely precedes the sample with bucket
// ordinal ord.
type hit struct{ cand, ord int32 }

// newCandidates sizes the per-block arrays for a binary of the given
// number of blocks.
func newCandidates(blocks int) *candidates {
	return &candidates{
		branchMark: make([]int32, blocks),
		sampleMark: make([]int32, blocks),
		slot:       make([]int32, blocks),
	}
}

// collect replaces the candidate list with the blocks that precede the
// given samples by at least dist cycles.
func (c *candidates) collect(prof *profile.Profile, samples []int32, dist float64) {
	c.branch++
	c.list, c.hits = c.list[:0], c.hits[:0]
	for ord, si := range samples {
		s := &prof.Samples[si]
		c.sample++
		// The window is in taken order; a block counts once per sample
		// and ties break by block ID, so the walk's order does not
		// matter.
		for _, rec := range prof.Window(int(si)) {
			if s.MissCycle-rec.Cycle < dist {
				// Too close to the miss to be timely.
				continue
			}
			// Both endpoints of the taken branch are blocks that
			// executed before the miss at sufficient distance. The
			// destination block is the natural injection site (the
			// prefetch runs when that block is entered).
			c.add(rec.ToBlock, int32(ord))
			c.add(rec.FromBlock, int32(ord))
		}
	}
	c.off = append(c.off[:0], 0)
	for i, cand := range c.list {
		c.off = append(c.off, c.off[i]+cand.count)
	}
	c.fill = append(c.fill[:0], c.off[:len(c.list)]...)
	c.cover = append(c.cover[:0], make([]int32, len(c.hits))...)
	for _, h := range c.hits {
		c.cover[c.fill[h.cand]] = h.ord
		c.fill[h.cand]++
	}
}

// add counts block for the current sample, at most once.
func (c *candidates) add(block, ord int32) {
	if c.sampleMark[block] == c.sample {
		return
	}
	c.sampleMark[block] = c.sample
	if c.branchMark[block] != c.branch {
		c.branchMark[block] = c.branch
		c.slot[block] = int32(len(c.list))
		c.list = append(c.list, candidate{block: block})
	}
	k := c.slot[block]
	c.list[k].count++
	c.hits = append(c.hits, hit{k, ord})
}

// coverSet returns the bucket ordinals of the samples list[i] covers.
func (c *candidates) coverSet(i int) []int32 {
	return c.cover[c.off[i]:c.off[i+1]]
}

func clampBits(b int) int {
	if b > 48 {
		return 48
	}
	return b
}
