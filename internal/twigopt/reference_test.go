package twigopt

import (
	"fmt"
	"sort"

	"twig/internal/isa"
	"twig/internal/profile"
	"twig/internal/program"
)

// referenceAnalyze is the map-based Analyze that the bucketed one
// replaced, kept verbatim (identifiers renamed) as the oracle for
// equivalence tests. refSiteFirstIdx reads blocks by layout index, so
// compare only on programs straight from Builder.Link, where the block
// ID equals the layout index.
func referenceAnalyze(p *program.Program, prof *profile.Profile, cfg Config) (*Analysis, error) {
	if cfg.OffsetBits <= 0 || cfg.OffsetBits > 48 {
		return nil, fmt.Errorf("twigopt: offset width %d out of range", cfg.OffsetBits)
	}
	if cfg.CoalesceMaskBits < 1 || cfg.CoalesceMaskBits > 64 {
		return nil, fmt.Errorf("twigopt: coalesce mask width %d out of range", cfg.CoalesceMaskBits)
	}

	// Step 1: per missed branch, accumulate timely-predecessor counts
	// (the probability denominator uses whole-run block execution
	// counts; the numerator and the set-cover structure come from the
	// samples).
	timely := make(map[refCandKey]int64)
	coverSets := make(map[refCandKey][]int32)
	sampleCount := make(map[int32]int64)
	for i := range prof.Samples {
		s := &prof.Samples[i]
		ordinal := int32(sampleCount[s.Branch])
		sampleCount[s.Branch]++
		seen := map[int32]bool{}
		add := func(block int32) {
			if seen[block] {
				return
			}
			seen[block] = true
			k := refCandKey{s.Branch, block}
			timely[k]++
			coverSets[k] = append(coverSets[k], ordinal)
		}
		for _, rec := range prof.Window(i) {
			if s.MissCycle-rec.Cycle < cfg.PrefetchDistance {
				// Too close to the miss to be timely; keep walking to
				// older records.
				continue
			}
			// Both endpoints of the taken branch are blocks that
			// executed before the miss at sufficient distance. The
			// destination block is the natural injection site (the
			// prefetch runs when that block is entered).
			add(rec.ToBlock)
			add(rec.FromBlock)
		}
	}

	an := &Analysis{Plan: &program.InjectionPlan{}}
	for _, n := range prof.MissCounts {
		an.TotalMissCount += n
	}

	// Group candidates per branch (single pass; candidateBlocks sorts
	// each group deterministically).
	byBranch := make(map[int32][]refCandidate, len(sampleCount))
	for k, n := range timely {
		byBranch[k.branch] = append(byBranch[k.branch], refCandidate{block: k.block, count: n})
	}

	// Branches in decreasing sampled-miss volume (ties by ID for
	// determinism), so the CoverageTarget cutoff keeps the head of the
	// distribution and drops the long tail.
	branches := make([]int32, 0, len(sampleCount))
	for b := range sampleCount {
		branches = append(branches, b)
	}
	sort.Slice(branches, func(i, j int) bool {
		mi, mj := prof.MissCounts[branches[i]], prof.MissCounts[branches[j]]
		if mi != mj {
			return mi > mj
		}
		return branches[i] < branches[j]
	})

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
	for _, br := range branches {
		if cfg.CoverageTarget > 0 && processedMisses >= cutoff {
			break
		}
		processedMisses += prof.MissCounts[br]
		if prof.MissCounts[br] < cfg.MinMissCount {
			continue
		}
		cands := refSortCandidates(byBranch[br])
		if len(cands) == 0 {
			an.NoCandidate++
			continue
		}
		// Greedy set cover over this branch's samples: each round picks
		// the candidate block that covers the most still-uncovered
		// samples among blocks meeting the accuracy threshold — the
		// multi-predecessor selection of the paper's Fig. 13 example.
		nSamples := int(sampleCount[br])
		covered := make([]bool, nSamples)
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
				for _, ord := range coverSets[refCandKey{br, rec.block}] {
					if !covered[ord] {
						gain++
					}
				}
				better := gain > bestGain || (gain == bestGain && prob > bestProb)
				if cfg.NearestSite {
					// Ablation: ignore probability, prefer the most
					// frequently timely block (locality-only heuristic).
					better = gain > bestGain
				}
				if better {
					bestIdx, bestGain, bestProb = ci, gain, prob
				}
			}
			// Stop when another site would cover almost nothing new.
			if bestIdx < 0 || bestGain == 0 || (round > 0 && bestGain*40 < nSamples) {
				break
			}
			blk := cands[bestIdx].block
			for _, ord := range coverSets[refCandKey{br, blk}] {
				if !covered[ord] {
					covered[ord] = true
					nCovered++
				}
			}
			cands[bestIdx].count = 0 // consume
			sites = append(sites, site{branch: br, block: blk, prob: bestProb})
			accepted++
		}
		switch {
		case accepted > 0:
			// Attribute the branch's miss volume proportionally to the
			// fraction of its samples the chosen sites can reach.
			an.CoveredMissCount += prof.MissCounts[br] * int64(nCovered) / int64(nSamples)
		case len(cands) > 0:
			an.LowProbability++
		default:
			an.NoCandidate++
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
	for _, st := range sites {
		br := p.InstrByID(st.branch)
		sitePC := p.Instrs[refSiteFirstIdx(p, st.block)].PC
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

// refCandKey keys the timely-predecessor counts by (missed branch,
// candidate block), both stable IDs.
type refCandKey struct {
	branch int32
	block  int32
}

// refCandidate is a (block, timely-count) pair for one branch.
type refCandidate struct {
	block int32
	count int64
}

// refSortCandidates orders a branch's candidate blocks deterministically.
func refSortCandidates(cs []refCandidate) []refCandidate {
	sort.Slice(cs, func(i, j int) bool { return cs[i].block < cs[j].block })
	return cs
}

func refSiteFirstIdx(p *program.Program, blockID int32) int32 {
	return p.Blocks[blockID].First
}
