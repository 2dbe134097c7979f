package prefetcher

import "twig/internal/isa"

// assoc is a set-associative LRU table keyed by branch PC with the
// per-entry metadata hardware BTB prefetchers need beyond the plain
// btb.BTB: a "filled by prefetch, not yet used" flag for accuracy
// accounting, and (for Shotgun's U-BTB) an 8-bit spatial footprint.
//
// Like btb.Config it requires only a power-of-two set count, so the
// entry count need not be a power of two: that is how Shotgun's
// published 5120-entry U-BTB (5-way × 1024 sets) and 1536-entry C-BTB
// (6-way × 256 sets) are realized here.
type assoc struct {
	setMask   uint64
	ways      int
	pcs       []uint64
	targets   []uint64
	kinds     []isa.Kind
	stamp     []uint64
	footprint []uint8
	pref      []bool
	clock     uint64
}

const assocInvalid = ^uint64(0)

func newAssoc(entries, ways int) *assoc {
	sets := entries / ways
	if sets <= 0 || sets&(sets-1) != 0 || sets*ways != entries {
		panic("prefetcher: assoc sets must be a positive power of two")
	}
	a := &assoc{
		setMask:   uint64(sets - 1),
		ways:      ways,
		pcs:       make([]uint64, entries),
		targets:   make([]uint64, entries),
		kinds:     make([]isa.Kind, entries),
		stamp:     make([]uint64, entries),
		footprint: make([]uint8, entries),
		pref:      make([]bool, entries),
	}
	for i := range a.pcs {
		a.pcs[i] = assocInvalid
	}
	return a
}

// lookup returns the slot of pc or -1, updating recency on hit.
func (a *assoc) lookup(pc uint64) int {
	base := int(pc&a.setMask) * a.ways
	for w := 0; w < a.ways; w++ {
		if a.pcs[base+w] == pc {
			a.clock++
			a.stamp[base+w] = a.clock
			return base + w
		}
	}
	return -1
}

// probe returns the slot of pc or -1 without recency update.
func (a *assoc) probe(pc uint64) int {
	base := int(pc&a.setMask) * a.ways
	for w := 0; w < a.ways; w++ {
		if a.pcs[base+w] == pc {
			return base + w
		}
	}
	return -1
}

// insert fills (or refreshes) an entry and returns its slot.
func (a *assoc) insert(pc, target uint64, kind isa.Kind, prefetched bool) int {
	base := int(pc&a.setMask) * a.ways
	victim := base
	for w := 0; w < a.ways; w++ {
		if a.pcs[base+w] == pc {
			victim = base + w
			a.targets[victim] = target
			a.kinds[victim] = kind
			if !prefetched {
				// Demand fill clears the flag; a prefetch refresh of an
				// existing entry leaves its provenance unchanged.
				a.pref[victim] = false
			}
			a.clock++
			a.stamp[victim] = a.clock
			return victim
		}
		if a.pcs[base+w] == assocInvalid {
			victim = base + w
			break
		}
		if a.stamp[base+w] < a.stamp[victim] {
			victim = base + w
		}
	}
	a.clock++
	a.pcs[victim] = pc
	a.targets[victim] = target
	a.kinds[victim] = kind
	a.footprint[victim] = 0
	a.pref[victim] = prefetched
	a.stamp[victim] = a.clock
	return victim
}
