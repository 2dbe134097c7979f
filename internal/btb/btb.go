// Package btb implements the Branch Target Buffer: a set-associative,
// LRU-replaced structure mapping branch PCs to taken targets, plus the
// supporting analysis structures the paper's characterization uses —
// a fully-associative shadow for 3C miss classification (Fig. 4) and a
// prefetch buffer that holds entries brought in by Twig's prefetch
// instructions before their first demand use (Fig. 25 sweeps its size).
//
// The default geometry is the paper's baseline: 8192 entries, 4-way
// (~75KB with 48-bit tags + targets + metadata).
package btb

import (
	"fmt"

	"twig/internal/isa"
)

// Replacement selects the BTB's victim-selection policy. The paper's
// baseline is LRU; the ablation-replacement experiment quantifies how
// much the policy matters for data-center branch streams (and whether
// Twig's benefit depends on it).
type Replacement uint8

// Replacement policies.
const (
	// ReplaceLRU evicts the least-recently-used way (the default).
	ReplaceLRU Replacement = iota
	// ReplaceFIFO evicts the oldest-inserted way regardless of use.
	ReplaceFIFO
	// ReplaceRandom evicts a deterministic-pseudo-random way.
	ReplaceRandom
)

// String implements fmt.Stringer.
func (r Replacement) String() string {
	switch r {
	case ReplaceLRU:
		return "lru"
	case ReplaceFIFO:
		return "fifo"
	case ReplaceRandom:
		return "random"
	}
	return "replacement(?)"
}

// Config sizes a BTB.
type Config struct {
	// Entries is the total entry count (power of two).
	Entries int
	// Ways is the set associativity; Entries/Ways sets.
	Ways int
	// Replacement selects the victim policy (zero value: LRU).
	Replacement Replacement
}

// DefaultConfig is the paper's 8K-entry 4-way baseline (Table 1).
func DefaultConfig() Config { return Config{Entries: 8192, Ways: 4} }

// Sets returns the number of sets.
func (c Config) Sets() int {
	if c.Ways <= 0 || c.Entries <= 0 || c.Entries%c.Ways != 0 {
		return 0
	}
	return c.Entries / c.Ways
}

// Validate reports whether the geometry is usable.
func (c Config) Validate() error {
	sets := c.Sets()
	if sets == 0 {
		return fmt.Errorf("btb: invalid geometry %+v", c)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("btb: sets %d not a power of two", sets)
	}
	return nil
}

// StorageBytes estimates the on-chip cost of the geometry assuming
// 48-bit virtual addresses: per entry a tag (48 minus index bits),
// target (48), and ~6 bits of type/metadata. The paper quotes its
// 8K-entry BTB at 75KB; this estimate lands within a kilobyte of that.
func (c Config) StorageBytes() int {
	sets := c.Sets()
	if sets == 0 {
		return 0
	}
	idxBits := 0
	for s := sets; s > 1; s >>= 1 {
		idxBits++
	}
	perEntryBits := (48 - idxBits) + 48 - 12 + 6 // tag + compressed target + meta
	return c.Entries * perEntryBits / 8
}

// Entry is one BTB entry.
type Entry struct {
	// PC is the branch instruction address (full tag).
	PC uint64
	// Target is the predicted taken-target address.
	Target uint64
	// Kind is the branch type stored for fetch-direction decisions.
	Kind isa.Kind
}

// BTB is a set-associative branch target buffer with a configurable
// replacement policy.
type BTB struct {
	setMask uint64
	ways    int
	policy  Replacement
	pcs     []uint64
	targets []uint64
	kinds   []isa.Kind
	// stamp holds LRU recency (LRU) or insertion order (FIFO).
	stamp []uint64
	clock uint64
	// rnd is the deterministic xorshift state for ReplaceRandom.
	rnd uint64
}

const invalidPC = ^uint64(0)

// New builds a BTB; it panics on invalid geometry (configs are static
// experiment parameters).
func New(cfg Config) *BTB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	b := &BTB{
		setMask: uint64(sets - 1),
		ways:    cfg.Ways,
		policy:  cfg.Replacement,
		pcs:     make([]uint64, sets*cfg.Ways),
		targets: make([]uint64, sets*cfg.Ways),
		kinds:   make([]isa.Kind, sets*cfg.Ways),
		stamp:   make([]uint64, sets*cfg.Ways),
		rnd:     0x243F6A8885A308D3, // deterministic seed (pi digits)
	}
	for i := range b.pcs {
		b.pcs[i] = invalidPC
	}
	return b
}

// index maps a branch PC to its set. Real BTBs index with low PC bits;
// variable-length instructions make the low bits well distributed
// already, so no hashing is applied — which also preserves the
// conflict-miss behaviour the associativity sweep (Fig. 6) studies.
func (b *BTB) index(pc uint64) int { return int(pc&b.setMask) * b.ways }

// Lookup returns the entry's target and whether it hit, updating
// recency on hit (LRU only; FIFO and random ignore use).
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	base := b.index(pc)
	for w := 0; w < b.ways; w++ {
		if b.pcs[base+w] == pc {
			if b.policy == ReplaceLRU {
				b.clock++
				b.stamp[base+w] = b.clock
			}
			return b.targets[base+w], true
		}
	}
	return 0, false
}

// Probe reports presence without recency update.
func (b *BTB) Probe(pc uint64) bool {
	base := b.index(pc)
	for w := 0; w < b.ways; w++ {
		if b.pcs[base+w] == pc {
			return true
		}
	}
	return false
}

// Insert fills an entry, evicting per the configured policy if the set
// is full. Present entries are updated in place (target changes under
// JIT recompilation in real systems; here targets are stable but the
// semantics match).
func (b *BTB) Insert(pc, target uint64, kind isa.Kind) {
	b.InsertEvict(pc, target, kind)
}

// InsertEvict is Insert plus what the fill did, for wrappers that
// virtualize evictions (the two-level Hierarchy demotes L1 victims into
// its last-level BTB): ev holds the displaced entry's prior contents
// when displaced is set, and resident reports that pc was already
// present and was updated in place. An in-place update or a fill into
// an invalid way displaces nothing.
func (b *BTB) InsertEvict(pc, target uint64, kind isa.Kind) (ev Entry, displaced, resident bool) {
	base := b.index(pc)
	victim := -1
	oldest := base
	for w := 0; w < b.ways; w++ {
		if b.pcs[base+w] == pc {
			b.targets[base+w] = target
			b.kinds[base+w] = kind
			if b.policy == ReplaceLRU {
				b.clock++
				b.stamp[base+w] = b.clock
			}
			return Entry{}, false, true
		}
		if victim < 0 && b.pcs[base+w] == invalidPC {
			victim = base + w
		}
		if b.stamp[base+w] < b.stamp[oldest] {
			oldest = base + w
		}
	}
	if victim < 0 {
		switch b.policy {
		case ReplaceRandom:
			// xorshift64: deterministic across runs.
			b.rnd ^= b.rnd << 13
			b.rnd ^= b.rnd >> 7
			b.rnd ^= b.rnd << 17
			victim = base + int(b.rnd%uint64(b.ways))
		default: // LRU recency and FIFO insertion order share stamp semantics.
			victim = oldest
		}
	}
	displaced = b.pcs[victim] != invalidPC
	if displaced {
		ev = Entry{PC: b.pcs[victim], Target: b.targets[victim], Kind: b.kinds[victim]}
	}
	b.clock++
	b.pcs[victim] = pc
	b.targets[victim] = target
	b.kinds[victim] = kind
	b.stamp[victim] = b.clock
	return ev, displaced, false
}

// Stats aggregates BTB demand behaviour per branch kind, maintained by
// the prefetch scheme driving the BTB (the BTB itself stays mechanism-
// only). Indexed by isa.Kind.
type Stats struct {
	Accesses [isa.NumKinds]int64
	Misses   [isa.NumKinds]int64
}

// DirectAccesses returns demand lookups by direct branches.
func (s *Stats) DirectAccesses() int64 {
	return s.Accesses[isa.KindCondBranch] + s.Accesses[isa.KindJump] + s.Accesses[isa.KindCall]
}

// DirectMisses returns misses by direct branches — the paper's MPKI
// numerator (Fig. 3 counts only "real BTB misses caused by direct
// branch instructions").
func (s *Stats) DirectMisses() int64 {
	return s.Misses[isa.KindCondBranch] + s.Misses[isa.KindJump] + s.Misses[isa.KindCall]
}

// TotalAccesses sums lookups across kinds.
func (s *Stats) TotalAccesses() int64 {
	var t int64
	for _, v := range s.Accesses {
		t += v
	}
	return t
}

// TotalMisses sums misses across kinds.
func (s *Stats) TotalMisses() int64 {
	var t int64
	for _, v := range s.Misses {
		t += v
	}
	return t
}
