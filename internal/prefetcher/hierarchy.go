package prefetcher

import (
	"twig/internal/btb"
	"twig/internal/checkpoint"
	"twig/internal/isa"
	"twig/internal/telemetry"
)

// Hierarchy is the Micro BTB two-level organization (Asheim et al.):
// the conventional L1 BTB backed by btb.Hierarchy's large compressed
// last-level BTB. It issues no prefetches — capacity misses that a
// bigger structure would absorb are instead served by the last level,
// so PrefetchStats stays zero and coverage/accuracy figures report it
// as a non-prefetching scheme.
//
// The L1 sees exactly the baseline's lookup and resolve-fill stream
// (last-level hits never write the L1 directly; the resolve-time
// demand fill re-establishes promoted entries), so every L1 hit the
// baseline gets, this scheme gets, and a last-level hit can only
// convert a baseline miss into a hit. That makes "hierarchy direct
// misses ≤ baseline direct misses" structural; internal/check enforces
// it as a CrossScheme law.
type Hierarchy struct {
	h     *btb.Hierarchy
	stats btb.Stats
}

// NewHierarchy builds the scheme.
func NewHierarchy(cfg btb.HierarchyConfig) *Hierarchy {
	return &Hierarchy{h: btb.NewHierarchy(cfg)}
}

// Name implements Scheme.
func (s *Hierarchy) Name() string { return "hierarchy" }

// Attach implements Scheme; the hierarchy needs no frontend services.
func (s *Hierarchy) Attach(Frontend) {}

// Lookup implements Scheme: L1 first, then — only for real (taken)
// misses, matching the baseline's benign-miss convention — the
// compressed last level. A last-level hit counts as a plain BTB hit:
// the promotion wire is part of the BTB complex and its latency is
// hidden by the decoupled frontend, so no resteer and no prefetch
// accounting.
func (s *Hierarchy) Lookup(pc uint64, kind isa.Kind, cycle float64, taken bool) LookupResult {
	s.stats.Accesses[kind]++
	if s.h.LookupL1(pc) {
		return LookupResult{Hit: true}
	}
	if !taken {
		return LookupResult{}
	}
	if _, _, hit := s.h.LookupL2(pc); hit {
		return LookupResult{Hit: true}
	}
	s.stats.Misses[kind]++
	return LookupResult{}
}

// Resolve implements Scheme: demand fill into the L1, demoting the
// displaced victim into the last level.
func (s *Hierarchy) Resolve(r *Resolution) {
	s.h.Insert(r.PC, r.Target, r.Kind)
}

// OnFetchLine implements Scheme; unused.
func (s *Hierarchy) OnFetchLine(uint64, float64) {}

// OnLineMiss implements Scheme; unused.
func (s *Hierarchy) OnLineMiss(uint64, float64) {}

// InsertPrefetch implements Scheme; the hierarchy has no software
// prefetch interface.
func (s *Hierarchy) InsertPrefetch(uint64, uint64, isa.Kind, float64) InsertOutcome {
	return InsertIgnored
}

// ProbeDemand implements Scheme: resident at either level.
func (s *Hierarchy) ProbeDemand(pc uint64) bool { return s.h.Probe(pc) }

// Stats implements Scheme.
func (s *Hierarchy) Stats() *btb.Stats { return &s.stats }

// PrefetchStats implements Scheme; the hierarchy never prefetches.
func (s *Hierarchy) PrefetchStats() PrefetchStats { return PrefetchStats{} }

// PublishTo publishes the per-level traffic counters (picked up by
// Register via the optional publisher interface).
func (s *Hierarchy) PublishTo(reg *telemetry.Registry) {
	s.h.PublishTo(reg, "btb_hier")
}

// Section tag ("HRCH").
const secHierarchy = 0x48524348

// SaveState implements checkpoint.State.
func (s *Hierarchy) SaveState(w *checkpoint.Writer) error {
	w.Section(secHierarchy)
	if err := s.h.SaveState(w); err != nil {
		return err
	}
	return s.stats.SaveState(w)
}

// RestoreState implements checkpoint.State.
func (s *Hierarchy) RestoreState(r *checkpoint.Reader) error {
	r.Section(secHierarchy)
	if err := s.h.RestoreState(r); err != nil {
		return err
	}
	return s.stats.RestoreState(r)
}
