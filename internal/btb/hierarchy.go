// Two-level BTB hierarchy after Micro BTB (Asheim et al.,
// arXiv:2106.04205): the existing set-associative BTB stays the L1 and
// a much larger last-level BTB sits behind it with compressed entries.
// Compression follows the paper's two observations about data-center
// code: branches cluster into a small number of code regions (so a full
// tag is replaced by an index into a shared region table plus the PC's
// low bits), and most taken targets land near the branch (so the full
// target is replaced by a short signed delta). Entries whose delta does
// not fit are simply not cached at the last level — the L1 still holds
// them while they are hot.
//
// Traffic between the levels is demand-driven: an L1 fill demotes the
// displaced victim into the last level, and a last-level hit promotes
// the entry back up (exclusively — the last-level copy is consumed), so
// the two levels approximate an exclusive hierarchy and the last level
// acts as a victim buffer with region-compressed tags.
package btb

import (
	"fmt"

	"twig/internal/checkpoint"
	"twig/internal/isa"
	"twig/internal/telemetry"
	"twig/internal/u64table"
)

// LastLevelConfig sizes the compressed last-level BTB.
type LastLevelConfig struct {
	// Entries is the total entry count; Entries/Ways sets (power of two).
	Entries int
	// Ways is the set associativity.
	Ways int
	// Regions is the shared region-table capacity. Evicting a live
	// region invalidates every last-level entry tagged with it.
	Regions int
	// RegionBits is log2 of the region size in bytes: a PC's high
	// 48-RegionBits bits name its region, the low RegionBits bits are
	// stored per entry.
	RegionBits int
	// DeltaBits is the signed width of the stored target delta
	// (target - pc); branches whose delta does not fit are not cached.
	DeltaBits int
}

// DefaultLastLevelConfig is a 32K-entry 8-way last level with 4KB
// regions and 16-bit target deltas — 4x the L1's entry count at about
// half its per-entry storage (41 vs ~79 bits).
func DefaultLastLevelConfig() LastLevelConfig {
	return LastLevelConfig{Entries: 32768, Ways: 8, Regions: 512, RegionBits: 12, DeltaBits: 16}
}

// Validate reports whether the geometry is usable.
func (c LastLevelConfig) Validate() error {
	if c.Ways <= 0 || c.Entries <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("btb: invalid last-level geometry %+v", c)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("btb: last-level sets %d not a power of two", sets)
	}
	if c.Regions <= 0 {
		return fmt.Errorf("btb: last-level region table must be non-empty")
	}
	if c.RegionBits < 1 || c.RegionBits > 32 {
		return fmt.Errorf("btb: region bits %d out of range", c.RegionBits)
	}
	if c.DeltaBits < 2 || c.DeltaBits > 32 {
		return fmt.Errorf("btb: delta bits %d out of range", c.DeltaBits)
	}
	return nil
}

// StorageBytes estimates the last level's on-chip cost: per entry a
// region-table index, the PC's low RegionBits bits, the signed delta
// and ~4 bits of kind/valid metadata, plus the region table itself
// (48-RegionBits base bits per slot). The generation counters used for
// bulk invalidation are a simulator stand-in for a hardware flash-clear
// and are excluded.
func (c LastLevelConfig) StorageBytes() int {
	if c.Validate() != nil {
		return 0
	}
	idxBits := 0
	for r := c.Regions - 1; r > 0; r >>= 1 {
		idxBits++
	}
	perEntryBits := idxBits + c.RegionBits + c.DeltaBits + 4
	regionTableBits := c.Regions * (48 - c.RegionBits)
	return (c.Entries*perEntryBits + regionTableBits) / 8
}

// HierarchyConfig sizes a two-level BTB hierarchy.
type HierarchyConfig struct {
	// L1 is the first-level BTB (the conventional demand BTB).
	L1 Config
	// L2 is the compressed last-level BTB behind it.
	L2 LastLevelConfig
}

// DefaultHierarchyConfig pairs the paper-baseline L1 with the default
// last level.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{L1: DefaultConfig(), L2: DefaultLastLevelConfig()}
}

// StorageBytes sums both levels.
func (c HierarchyConfig) StorageBytes() int {
	return c.L1.StorageBytes() + c.L2.StorageBytes()
}

// Hierarchy is a two-level BTB: an exact L1 (plain BTB) backed by a
// compressed, region-tagged last level. The L1 sees exactly the
// lookup/insert stream a standalone BTB would — promotions from the
// last level never write the L1 directly (the demand fill at resolve
// does), which is what keeps the L1's contents bit-identical to a
// hierarchy-less baseline and makes "hierarchy misses ≤ baseline
// misses" a structural property rather than an empirical one.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  *BTB

	// Last-level entry arrays. An entry is live when its region slot is
	// >= 0 AND its generation matches the slot's current generation —
	// evicting a region bumps the generation, bulk-invalidating its
	// entries without a scan.
	llSetMask uint64
	llWays    int
	llRegion  []int32
	llGen     []uint32
	llOff     []uint32
	llDelta   []int32
	llKind    []isa.Kind
	llStamp   []uint64
	llClock   uint64

	// Region table: base (pc >> RegionBits) per slot, LRU-replaced,
	// with an exact-match index for O(1) lookup.
	regionShift uint
	offMask     uint64
	regionBase  []uint64
	regionGen   []uint32
	regionStamp []uint64
	regionClock uint64
	regionIdx   u64table.Table[int32]

	// Per-level traffic counters, published via PublishTo.
	L1Hits          int64
	L1Misses        int64
	L2Hits          int64
	L2Misses        int64
	Promotions      int64
	Demotions       int64
	Uncompressible  int64
	RegionEvictions int64
}

// NewHierarchy builds a hierarchy; it panics on invalid geometry
// (configs are static experiment parameters, matching New).
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.L2.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.L2.Entries / cfg.L2.Ways
	h := &Hierarchy{
		cfg:         cfg,
		l1:          New(cfg.L1),
		llSetMask:   uint64(sets - 1),
		llWays:      cfg.L2.Ways,
		llRegion:    make([]int32, cfg.L2.Entries),
		llGen:       make([]uint32, cfg.L2.Entries),
		llOff:       make([]uint32, cfg.L2.Entries),
		llDelta:     make([]int32, cfg.L2.Entries),
		llKind:      make([]isa.Kind, cfg.L2.Entries),
		llStamp:     make([]uint64, cfg.L2.Entries),
		regionShift: uint(cfg.L2.RegionBits),
		offMask:     uint64(1)<<uint(cfg.L2.RegionBits) - 1,
		regionBase:  make([]uint64, cfg.L2.Regions),
		regionGen:   make([]uint32, cfg.L2.Regions),
		regionStamp: make([]uint64, cfg.L2.Regions),
	}
	for i := range h.llRegion {
		h.llRegion[i] = -1
	}
	for i := range h.regionBase {
		h.regionBase[i] = invalidPC
	}
	h.regionIdx.Grow(cfg.L2.Regions)
	return h
}

// Config returns the hierarchy's geometry.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1 exposes the first level (for lockstep property tests).
func (h *Hierarchy) L1() *BTB { return h.l1 }

// LookupL1 performs the demand L1 lookup, updating recency exactly as
// a standalone BTB lookup would.
func (h *Hierarchy) LookupL1(pc uint64) bool {
	if _, hit := h.l1.Lookup(pc); hit {
		h.L1Hits++
		return true
	}
	h.L1Misses++
	return false
}

// llIndex maps a pc to its last-level set base.
func (h *Hierarchy) llIndex(pc uint64) int { return int(pc&h.llSetMask) * h.llWays }

// llLive reports whether slot e holds a current-generation entry.
func (h *Hierarchy) llLive(e int) bool {
	rs := h.llRegion[e]
	return rs >= 0 && h.llGen[e] == h.regionGen[rs]
}

// llFind returns pc's live last-level slot or -1, without state change.
// Identity is exact: region base, low PC bits and generation must all
// match, so compression never aliases.
func (h *Hierarchy) llFind(pc uint64) int {
	base := h.llIndex(pc)
	off := uint32(pc & h.offMask)
	rb := pc >> h.regionShift
	for w := 0; w < h.llWays; w++ {
		e := base + w
		rs := h.llRegion[e]
		if rs < 0 || h.llGen[e] != h.regionGen[rs] || h.llOff[e] != off || h.regionBase[rs] != rb {
			continue
		}
		return e
	}
	return -1
}

// LookupL2 consults the last level after an L1 miss. A hit consumes
// the entry (the hierarchy is exclusive: the resolve-time demand fill
// re-establishes it in the L1) and returns the exact reconstructed
// target.
func (h *Hierarchy) LookupL2(pc uint64) (target uint64, kind isa.Kind, hit bool) {
	e := h.llFind(pc)
	if e < 0 {
		h.L2Misses++
		return 0, 0, false
	}
	h.L2Hits++
	h.Promotions++
	target = uint64(int64(pc) + int64(h.llDelta[e]))
	kind = h.llKind[e]
	h.llRegion[e] = -1
	return target, kind, true
}

// Probe reports presence at either level without any state change.
func (h *Hierarchy) Probe(pc uint64) bool {
	return h.l1.Probe(pc) || h.llFind(pc) >= 0
}

// Insert performs the demand fill: the L1 is written exactly as a
// standalone BTB would be, any last-level copy of pc is invalidated
// (the L1 copy supersedes it), and a valid L1 victim is demoted into
// the last level if its target delta compresses.
//
// So no pc is ever live at both levels: a fill invalidates the
// last-level copy, a promotion consumes it, and demote writes only a
// pc the L1 has just given up. A fill that updated a resident L1 entry
// therefore has no last-level copy to find, and skips the probe.
func (h *Hierarchy) Insert(pc, target uint64, kind isa.Kind) {
	ev, displaced, resident := h.l1.InsertEvict(pc, target, kind)
	if resident {
		return
	}
	if e := h.llFind(pc); e >= 0 {
		h.llRegion[e] = -1
	}
	if displaced {
		h.demote(ev.PC, ev.Target, ev.Kind)
	}
}

// demote writes an L1 victim into the last level. The victim was live
// in the L1 until this fill, so it has no live last-level copy.
func (h *Hierarchy) demote(pc, target uint64, kind isa.Kind) {
	delta := int64(target) - int64(pc)
	if !isa.FitsSigned(delta, h.cfg.L2.DeltaBits) {
		h.Uncompressible++
		return
	}
	rs := h.regionFor(pc >> h.regionShift)
	off := uint32(pc & h.offMask)
	base := h.llIndex(pc)
	victim := -1
	oldest := base
	for w := 0; w < h.llWays; w++ {
		e := base + w
		if victim < 0 && !h.llLive(e) {
			victim = e
		}
		if h.llStamp[e] < h.llStamp[oldest] {
			oldest = e
		}
	}
	if victim < 0 {
		victim = oldest
	}
	h.llClock++
	h.llRegion[victim] = rs
	h.llGen[victim] = h.regionGen[rs]
	h.llOff[victim] = off
	h.llDelta[victim] = int32(delta)
	h.llKind[victim] = kind
	h.llStamp[victim] = h.llClock
	h.Demotions++
}

// regionFor returns the region-table slot for base, allocating (and if
// necessary evicting the LRU region, generation-invalidating its
// entries) on first use.
func (h *Hierarchy) regionFor(base uint64) int32 {
	if slot, ok := h.regionIdx.Get(base); ok {
		h.regionClock++
		h.regionStamp[slot] = h.regionClock
		return slot
	}
	victim := 0
	for i := range h.regionBase {
		if h.regionBase[i] == invalidPC {
			victim = i
			break
		}
		if h.regionStamp[i] < h.regionStamp[victim] {
			victim = i
		}
	}
	if h.regionBase[victim] != invalidPC {
		h.regionIdx.Delete(h.regionBase[victim])
		h.regionGen[victim]++
		h.RegionEvictions++
	}
	h.regionBase[victim] = base
	h.regionIdx.Put(base, int32(victim))
	h.regionClock++
	h.regionStamp[victim] = h.regionClock
	return int32(victim)
}

// PublishTo registers the per-level traffic counters as live gauges
// (prefix_l1_hits, prefix_promotions, ...).
func (h *Hierarchy) PublishTo(reg *telemetry.Registry, prefix string) {
	reg.GaugeInt(prefix+"_l1_hits", func() int64 { return h.L1Hits })
	reg.GaugeInt(prefix+"_l1_misses", func() int64 { return h.L1Misses })
	reg.GaugeInt(prefix+"_l2_hits", func() int64 { return h.L2Hits })
	reg.GaugeInt(prefix+"_l2_misses", func() int64 { return h.L2Misses })
	reg.GaugeInt(prefix+"_promotions", func() int64 { return h.Promotions })
	reg.GaugeInt(prefix+"_demotions", func() int64 { return h.Demotions })
	reg.GaugeInt(prefix+"_uncompressible", func() int64 { return h.Uncompressible })
	reg.GaugeInt(prefix+"_region_evictions", func() int64 { return h.RegionEvictions })
}

// Section tag ("HIER").
const secHier = 0x48494552

// SaveState serializes both levels: the L1 via its own section, then
// the last-level arrays, region table and counters. The region index
// table is rebuilt on restore (its internal layout never affects
// results), matching the prefetch-buffer convention.
func (h *Hierarchy) SaveState(w *checkpoint.Writer) error {
	if err := h.l1.SaveState(w); err != nil {
		return err
	}
	w.Section(secHier)
	w.I32s(h.llRegion)
	w.U32s(h.llGen)
	w.U32s(h.llOff)
	w.I32s(h.llDelta)
	kinds := make([]uint8, len(h.llKind))
	for i, k := range h.llKind {
		kinds[i] = uint8(k)
	}
	w.U8s(kinds)
	w.U64s(h.llStamp)
	w.U64(h.llClock)
	w.U64s(h.regionBase)
	w.U32s(h.regionGen)
	w.U64s(h.regionStamp)
	w.U64(h.regionClock)
	w.I64(h.L1Hits)
	w.I64(h.L1Misses)
	w.I64(h.L2Hits)
	w.I64(h.L2Misses)
	w.I64(h.Promotions)
	w.I64(h.Demotions)
	w.I64(h.Uncompressible)
	w.I64(h.RegionEvictions)
	return nil
}

// RestoreState restores a hierarchy of identical geometry, rebuilding
// the region index from the restored region table.
func (h *Hierarchy) RestoreState(r *checkpoint.Reader) error {
	if err := h.l1.RestoreState(r); err != nil {
		return err
	}
	r.Section(secHier)
	r.I32sInto(h.llRegion)
	r.U32sInto(h.llGen)
	r.U32sInto(h.llOff)
	r.I32sInto(h.llDelta)
	kinds := make([]uint8, len(h.llKind))
	r.U8sInto(kinds)
	r.U64sInto(h.llStamp)
	h.llClock = r.U64()
	r.U64sInto(h.regionBase)
	r.U32sInto(h.regionGen)
	r.U64sInto(h.regionStamp)
	h.regionClock = r.U64()
	h.L1Hits = r.I64()
	h.L1Misses = r.I64()
	h.L2Hits = r.I64()
	h.L2Misses = r.I64()
	h.Promotions = r.I64()
	h.Demotions = r.I64()
	h.Uncompressible = r.I64()
	h.RegionEvictions = r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	for _, rs := range h.llRegion {
		if int(rs) >= h.cfg.L2.Regions {
			return fmt.Errorf("btb: checkpoint last-level region slot out of range")
		}
	}
	for i, k := range kinds {
		h.llKind[i] = isa.Kind(k)
	}
	h.regionIdx.Clear()
	for i, base := range h.regionBase {
		if base != invalidPC {
			h.regionIdx.Put(base, int32(i))
		}
	}
	return nil
}
