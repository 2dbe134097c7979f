// Package cache implements set-associative LRU caches of cache-line
// addresses and the three-level instruction-side hierarchy from the
// paper's Table 1 (32KB 8-way L1i, 1MB 16-way L2, 10MB 20-way L3).
//
// The simulator tracks instruction lines only — Twig is a frontend
// study and data accesses are folded into the backend-CPI constant —
// so a cache here is a presence/recency structure over 64B line
// addresses, not a data store.
package cache

import "fmt"

// LineBytes is the line size used across the hierarchy.
const LineBytes = 64

// LineShift converts addresses to line addresses.
const LineShift = 6

// LineOf returns the line address (unit: lines, not bytes) of addr.
func LineOf(addr uint64) uint64 { return addr >> LineShift }

// Config sizes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	lines := c.SizeBytes / LineBytes
	if c.Ways <= 0 || lines <= 0 || lines%c.Ways != 0 {
		return 0
	}
	return lines / c.Ways
}

// Validate reports whether the geometry is usable (power-of-two sets).
func (c Config) Validate() error {
	sets := c.Sets()
	if sets == 0 {
		return fmt.Errorf("cache: invalid geometry %+v", c)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: sets %d not a power of two", sets)
	}
	return nil
}

// Cache is a set-associative LRU cache over line addresses.
type Cache struct {
	setMask uint64
	ways    int
	// tags[set*ways+way]; valid encoded as tag != invalidTag (line
	// address 0 is never used by generated programs, whose text starts
	// at 0x400000, but use an explicit sentinel anyway).
	tags []uint64
	// stamp[set*ways+way] is the LRU timestamp.
	stamp []uint64
	clock uint64

	// Accesses and Misses count demand lookups (not prefetch fills).
	Accesses, Misses int64
}

const invalidTag = ^uint64(0)

// New builds a cache from cfg; it panics on invalid geometry (configs
// are static experiment parameters, not user input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		setMask: uint64(sets - 1),
		ways:    cfg.Ways,
		tags:    make([]uint64, sets*cfg.Ways),
		stamp:   make([]uint64, sets*cfg.Ways),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Access performs a demand access: it counts the access, refreshes a
// present line's recency, and on a miss counts the miss and fills the
// line. It reports whether line was present.
func (c *Cache) Access(line uint64) bool {
	c.Accesses++
	i, hit := c.way(line)
	if !hit {
		c.Misses++
		c.tags[i] = line
	}
	c.clock++
	c.stamp[i] = c.clock
	return hit
}

// Fill brings line in without counting a demand access. A present line
// is left as it is, recency included, and Fill reports false; otherwise
// it reports true.
func (c *Cache) Fill(line uint64) bool {
	i, hit := c.way(line)
	if hit {
		return false
	}
	c.clock++
	c.tags[i] = line
	c.stamp[i] = c.clock
	return true
}

// Probe reports presence without updating recency or counters.
func (c *Cache) Probe(line uint64) bool {
	base := int(line&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// way looks line up with one scan of its set's tags. It returns line's
// slot and true when line is present; otherwise it returns the slot a
// fill takes, the set's first invalid way or else its first way with
// the lowest LRU stamp, and false. The stamps are read only on a miss
// in a full set, so a hit costs no more than a presence probe.
func (c *Cache) way(line uint64) (int, bool) {
	base := int(line&c.setMask) * c.ways
	free := -1
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == line {
			return base + w, true
		}
		if tag == invalidTag && free < 0 {
			free = w
		}
	}
	if free >= 0 {
		return base + free, false
	}
	stamps := c.stamp[base : base+c.ways]
	victim := 0
	for w, s := range stamps {
		if s < stamps[victim] {
			victim = w
		}
	}
	return base + victim, false
}

// Hierarchy is the instruction-side path: L1i backed by unified L2 and
// shared L3, with fixed hit latencies per level (cycles). A miss at
// every level costs MemLat.
type Hierarchy struct {
	L1, L2, L3           *Cache
	L2Lat, L3Lat, MemLat float64
}

// HierarchyConfig carries the full geometry + latencies.
type HierarchyConfig struct {
	L1, L2, L3           Config
	L2Lat, L3Lat, MemLat float64
}

// DefaultHierarchy returns Table 1's memory hierarchy with typical
// server-class latencies.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1:    Config{SizeBytes: 32 << 10, Ways: 8},
		L2:    Config{SizeBytes: 1 << 20, Ways: 16},
		L3:    Config{SizeBytes: 10 << 20, Ways: 20},
		L2Lat: 14, L3Lat: 36, MemLat: 160,
	}
}

// NewHierarchy builds the three levels.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1: New(cfg.L1), L2: New(cfg.L2), L3: New(cfg.L3),
		L2Lat: cfg.L2Lat, L3Lat: cfg.L3Lat, MemLat: cfg.MemLat,
	}
}

// Fetch performs a demand access for line, filling all levels on the
// way in, and returns the latency beyond an L1 hit (0 for an L1 hit).
func (h *Hierarchy) Fetch(line uint64) float64 {
	if h.L1.Access(line) {
		return 0
	}
	return h.level23(line)
}

// Prefetch brings line toward L1 without counting a demand access, and
// returns the fill latency the prefetch will take (0 if already in L1,
// in which case nothing changes). Callers use the latency to decide
// when the prefetch completes.
func (h *Hierarchy) Prefetch(line uint64) float64 {
	if !h.L1.Fill(line) {
		return 0
	}
	return h.level23(line)
}

// level23 serves an L1 miss from L2, L3 or memory, filling each level
// that missed. The levels are independent caches, so filling L1 before
// them leaves the same state as filling it after.
func (h *Hierarchy) level23(line uint64) float64 {
	if h.L2.Access(line) {
		return h.L2Lat
	}
	if h.L3.Access(line) {
		return h.L3Lat
	}
	return h.MemLat
}
