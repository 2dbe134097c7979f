package prefetcher

import (
	"twig/internal/btb"
	"twig/internal/checkpoint"
	"twig/internal/isa"
)

// ShadowConfig sizes the shadow-branch scheme: a conventional main BTB
// plus the Shadow Branch Buffer that holds predecoded-but-unexecuted
// branches.
type ShadowConfig struct {
	// BTB is the main demand BTB (the baseline geometry).
	BTB btb.Config
	// SBBEntries/SBBWays size the shadow branch buffer.
	SBBEntries, SBBWays int
}

// DefaultShadowConfig pairs the paper-baseline BTB with a 2K-entry
// 4-way SBB (a quarter of the main BTB — shadow entries are short-lived
// staging state, not a second BTB).
func DefaultShadowConfig() ShadowConfig {
	return ShadowConfig{BTB: btb.DefaultConfig(), SBBEntries: 2048, SBBWays: 4}
}

// Shadow implements the shadow-branch scheme after "Exposing Shadow
// Branches" (arXiv:2408.12592): every I-cache line the fetch engine
// touches is predecoded, and direct branches found in it that are not
// yet BTB-resident — typically not-taken or not-yet-executed "shadow"
// branches sharing a line with the hot path — are staged in a Shadow
// Branch Buffer. A later demand lookup that misses the main BTB but
// hits the SBB promotes the entry and proceeds without a resteer. The
// scheme needs no profile, no extra memory traffic, and no software
// prefetch instructions: it harvests target metadata already flowing
// through the fetch pipe.
//
// The main BTB sees exactly the baseline's lookup and resolve-fill
// stream (SBB hits never write it; the resolve-time fill does), so a
// demand miss here implies the same miss in the baseline run — "shadow
// direct misses ≤ baseline direct misses" is structural and enforced
// as a CrossScheme law.
type Shadow struct {
	cfg ShadowConfig
	fe  Frontend

	b   *btb.BTB
	sbb *assoc

	stats btb.Stats
	pf    PrefetchStats
}

// NewShadow builds the scheme.
func NewShadow(cfg ShadowConfig) *Shadow {
	return &Shadow{
		cfg: cfg,
		b:   btb.New(cfg.BTB),
		sbb: newAssoc(cfg.SBBEntries, cfg.SBBWays),
	}
}

// Name implements Scheme.
func (s *Shadow) Name() string { return "shadow" }

// Attach implements Scheme.
func (s *Shadow) Attach(fe Frontend) { s.fe = fe }

// Lookup implements Scheme: main BTB first; a real (taken) miss
// consults the SBB, and an SBB hit counts as a covered miss (the
// resolve-time demand fill establishes the entry in the main BTB).
func (s *Shadow) Lookup(pc uint64, kind isa.Kind, cycle float64, taken bool) LookupResult {
	s.stats.Accesses[kind]++
	if _, hit := s.b.Lookup(pc); hit {
		return LookupResult{Hit: true}
	}
	if !taken {
		return LookupResult{}
	}
	if slot := s.sbb.lookup(pc); slot >= 0 {
		// Consume the shadow entry: the branch is executing now, so its
		// resolution fills the main BTB and the SBB slot is freed.
		s.sbb.pcs[slot] = assocInvalid
		s.pf.Used++
		return LookupResult{Hit: true, FromPrefetch: true}
	}
	s.stats.Misses[kind]++
	return LookupResult{}
}

// Resolve implements Scheme: conventional demand fill.
func (s *Shadow) Resolve(r *Resolution) {
	s.b.Insert(r.PC, r.Target, r.Kind)
}

// OnFetchLine implements Scheme: predecode the fetched line and stage
// every direct branch not already resident in the main BTB or the SBB.
// Branches already resident are skipped silently rather than counted
// redundant — the SBB allocates only on presence-check miss, so every
// Issued is a real insertion and accuracy stays meaningful across the
// many repeat visits a hot line gets.
func (s *Shadow) OnFetchLine(line uint64, cycle float64) {
	p := s.fe.Program()
	for _, idx := range p.LineBranches(line, line+1) {
		in := &p.Instrs[idx]
		if !in.Kind.IsDirect() {
			continue
		}
		if s.b.Probe(in.PC) || s.sbb.probe(in.PC) >= 0 {
			continue
		}
		s.sbb.insert(in.PC, p.TargetPC(idx), in.Kind, true)
		s.pf.Issued++
	}
}

// OnLineMiss implements Scheme; predecode happens on fetch, not miss.
func (s *Shadow) OnLineMiss(uint64, float64) {}

// InsertPrefetch implements Scheme; shadow branches need no software
// prefetch interface.
func (s *Shadow) InsertPrefetch(uint64, uint64, isa.Kind, float64) InsertOutcome {
	return InsertIgnored
}

// ProbeDemand implements Scheme.
func (s *Shadow) ProbeDemand(pc uint64) bool { return s.b.Probe(pc) }

// Stats implements Scheme.
func (s *Shadow) Stats() *btb.Stats { return &s.stats }

// PrefetchStats implements Scheme: Issued counts SBB insertions, Used
// counts SBB entries consumed by demand lookups.
func (s *Shadow) PrefetchStats() PrefetchStats { return s.pf }

// Section tag ("SHDW").
const secShadow = 0x53484457

// SaveState implements checkpoint.State.
func (s *Shadow) SaveState(w *checkpoint.Writer) error {
	w.Section(secShadow)
	if err := s.b.SaveState(w); err != nil {
		return err
	}
	saveAssoc(w, s.sbb)
	if err := s.stats.SaveState(w); err != nil {
		return err
	}
	savePF(w, s.pf)
	return nil
}

// RestoreState implements checkpoint.State.
func (s *Shadow) RestoreState(r *checkpoint.Reader) error {
	r.Section(secShadow)
	if err := s.b.RestoreState(r); err != nil {
		return err
	}
	if err := restoreAssoc(r, s.sbb); err != nil {
		return err
	}
	if err := s.stats.RestoreState(r); err != nil {
		return err
	}
	s.pf = restorePF(r)
	return r.Err()
}
