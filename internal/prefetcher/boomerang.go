package prefetcher

import (
	"twig/internal/btb"
	"twig/internal/isa"
)

// Boomerang implements Kumar et al.'s Boomerang (HPCA 2017), the
// metadata-free predecessor of Shotgun that the paper's related-work
// section positions Twig against: a plain FDIP frontend whose fetched
// (and FDIP-prefetched) I-cache lines are predecoded, filling the BTB
// with every branch found in the lines that flow through the frontend.
// It needs no storage beyond the BTB but covers a miss only if the
// frontend happened to stream the branch's line recently — its coverage
// collapses exactly when BTB misses are frequent, because each miss
// resteers the frontend and cuts the predecode stream short.
type Boomerang struct {
	fe    Frontend
	b     *assoc
	stats btb.Stats
	pf    PrefetchStats

	// prevLine delays predecode by one line: a line's branches enter
	// the BTB only once the line has passed through the decode stage,
	// i.e. when fetch has moved on — so a predecoded entry can never
	// satisfy the very lookup whose miss caused its line to be fetched.
	prevLine uint64
}

// NewBoomerang builds the scheme over the given BTB geometry.
func NewBoomerang(cfg btb.Config) *Boomerang {
	return &Boomerang{b: newAssoc(cfg.Entries, cfg.Ways), prevLine: ^uint64(0)}
}

// Name implements Scheme.
func (s *Boomerang) Name() string { return "boomerang" }

// Attach implements Scheme.
func (s *Boomerang) Attach(fe Frontend) { s.fe = fe }

// Lookup implements Scheme.
func (s *Boomerang) Lookup(pc uint64, kind isa.Kind, cycle float64, taken bool) LookupResult {
	s.stats.Accesses[kind]++
	slot := s.b.lookup(pc)
	if slot < 0 {
		if taken {
			s.stats.Misses[kind]++
		}
		return LookupResult{}
	}
	res := LookupResult{Hit: true}
	if s.b.pref[slot] {
		s.b.pref[slot] = false
		s.pf.Used++
		res.FromPrefetch = true
	}
	return res
}

// Resolve implements Scheme: demand fill.
func (s *Boomerang) Resolve(r *Resolution) {
	s.b.insert(r.PC, r.Target, r.Kind, false)
}

// OnFetchLine implements Scheme: predecode every branch in the
// previous line the frontend streamed — Boomerang's entire mechanism,
// one decode-stage behind fetch.
func (s *Boomerang) OnFetchLine(line uint64, cycle float64) {
	decoded := s.prevLine
	s.prevLine = line
	if decoded == ^uint64(0) {
		return
	}
	p := s.fe.Program()
	for _, idx := range p.LineBranches(decoded, decoded+1) {
		in := &p.Instrs[idx]
		if s.b.probe(in.PC) >= 0 {
			s.pf.Redundant++
			continue
		}
		s.b.insert(in.PC, p.TargetPC(idx), in.Kind, true)
		s.pf.Issued++
	}
}

// OnLineMiss implements Scheme; Boomerang trains on the fetch stream.
func (s *Boomerang) OnLineMiss(uint64, float64) {}

// InsertPrefetch implements Scheme; no software interface.
func (s *Boomerang) InsertPrefetch(uint64, uint64, isa.Kind, float64) InsertOutcome {
	return InsertIgnored
}

// ProbeDemand implements Scheme.
func (s *Boomerang) ProbeDemand(pc uint64) bool { return s.b.probe(pc) >= 0 }

// Stats implements Scheme.
func (s *Boomerang) Stats() *btb.Stats { return &s.stats }

// PrefetchStats implements Scheme. Redundant predecodes count
// against Issued so accuracy is comparable across schemes (the
// baseline charges Twig the same way).
func (s *Boomerang) PrefetchStats() PrefetchStats {
	out := s.pf
	out.Issued += out.Redundant
	return out
}
