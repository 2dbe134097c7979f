package prefetcher

import (
	"twig/internal/btb"
	"twig/internal/cache"
	"twig/internal/isa"
)

// BulkPreloadConfig sizes the two-level bulk-preload frontend.
type BulkPreloadConfig struct {
	// L1 is the first-level BTB the frontend looks up.
	L1 btb.Config
	// L2Entries is the capacity of the large second-level BTB holding
	// evicted and preloaded entries (backed by on-chip SRAM in the
	// original design).
	L2Entries, L2Ways int
	// RegionBytes is the preload granularity, a power of two of at
	// least one cache line: on an L1 miss, every L2 entry whose branch
	// PC falls in the missing branch's aligned region is moved up.
	RegionBytes uint64
	// PreloadLatency is the cycles before bulk-preloaded entries are
	// usable (an L2-BTB access).
	PreloadLatency float64
}

// DefaultBulkPreloadConfig mirrors the published design's spirit: the
// baseline 8K L1 BTB in front of a 32K-entry second level with 256-byte
// preload regions.
func DefaultBulkPreloadConfig() BulkPreloadConfig {
	return BulkPreloadConfig{
		L1:             btb.DefaultConfig(),
		L2Entries:      32768,
		L2Ways:         4,
		RegionBytes:    256,
		PreloadLatency: 12,
	}
}

// BulkPreload implements Bonanno et al.'s two-level bulk preload
// (HPCA 2013), the paper's related-work comparison for region-grained
// BTB prefetching: a small fast BTB backed by a large second level; a
// miss in the first level preloads the whole aligned region of entries
// from the second, exploiting only spatial locality — which is why the
// paper likens it to a next-line prefetcher and why it cannot cover
// Twig's long-range misses.
type BulkPreload struct {
	cfg BulkPreloadConfig
	fe  Frontend

	l1 *assoc
	l2 *assoc

	stats btb.Stats
	pf    PrefetchStats
}

// NewBulkPreload builds the scheme.
func NewBulkPreload(cfg BulkPreloadConfig) *BulkPreload {
	return &BulkPreload{
		cfg: cfg,
		l1:  newAssoc(cfg.L1.Entries, cfg.L1.Ways),
		l2:  newAssoc(cfg.L2Entries, cfg.L2Ways),
	}
}

// Name implements Scheme.
func (s *BulkPreload) Name() string { return "bulk-preload" }

// Attach implements Scheme.
func (s *BulkPreload) Attach(fe Frontend) { s.fe = fe }

// Lookup implements Scheme: L1 lookup; a miss that hits L2 triggers a
// bulk preload of the region but still counts as a (cheaper) miss for
// this lookup — the entry arrives PreloadLatency later, modeled as a
// late prefetch.
func (s *BulkPreload) Lookup(pc uint64, kind isa.Kind, cycle float64, taken bool) LookupResult {
	s.stats.Accesses[kind]++
	if slot := s.l1.lookup(pc); slot >= 0 {
		res := LookupResult{Hit: true}
		if s.l1.pref[slot] {
			s.l1.pref[slot] = false
			s.pf.Used++
			res.FromPrefetch = true
		}
		return res
	}
	if !taken {
		return LookupResult{}
	}
	if s.l2.lookup(pc) >= 0 {
		// Second-level hit: preload the whole region into L1. The
		// requested entry itself is usable after the L2 access — a
		// "late prefetch" covering most of the resteer.
		s.preloadRegion(pc)
		s.pf.Used++
		return LookupResult{Hit: true, LateBy: s.cfg.PreloadLatency, FromPrefetch: true}
	}
	s.stats.Misses[kind]++
	return LookupResult{}
}

// preloadRegion moves every L2-resident entry of pc's aligned region
// into L1.
func (s *BulkPreload) preloadRegion(pc uint64) {
	base := pc &^ (s.cfg.RegionBytes - 1)
	p := s.fe.Program()
	for _, idx := range p.LineBranches(cache.LineOf(base), cache.LineOf(base+s.cfg.RegionBytes)) {
		in := &p.Instrs[idx]
		l2slot := s.l2.probe(in.PC)
		if l2slot < 0 {
			continue // region neighbour never resolved: L2 does not know it
		}
		if s.l1.probe(in.PC) >= 0 {
			s.pf.Redundant++
			continue
		}
		s.l1.insert(in.PC, s.l2.targets[l2slot], s.l2.kinds[l2slot], true)
		s.pf.Issued++
	}
}

// Resolve implements Scheme: fill both levels (the second level is
// effectively a victim/els superset store).
func (s *BulkPreload) Resolve(r *Resolution) {
	s.l1.insert(r.PC, r.Target, r.Kind, false)
	s.l2.insert(r.PC, r.Target, r.Kind, false)
}

// OnFetchLine implements Scheme; unused.
func (s *BulkPreload) OnFetchLine(uint64, float64) {}

// OnLineMiss implements Scheme; unused.
func (s *BulkPreload) OnLineMiss(uint64, float64) {}

// InsertPrefetch implements Scheme; no software interface.
func (s *BulkPreload) InsertPrefetch(uint64, uint64, isa.Kind, float64) InsertOutcome {
	return InsertIgnored
}

// ProbeDemand implements Scheme.
func (s *BulkPreload) ProbeDemand(pc uint64) bool { return s.l1.probe(pc) >= 0 }

// Stats implements Scheme.
func (s *BulkPreload) Stats() *btb.Stats { return &s.stats }

// PrefetchStats implements Scheme.
func (s *BulkPreload) PrefetchStats() PrefetchStats { return s.pf }
