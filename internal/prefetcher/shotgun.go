package prefetcher

import (
	"twig/internal/btb"
	"twig/internal/cache"
	"twig/internal/isa"
)

// ShotgunConfig sizes the Shotgun frontend (the paper's §2.3 evaluation
// configuration: 5120-entry U-BTB, 1536-entry C-BTB; the 1536-entry RAS
// is configured on the pipeline).
type ShotgunConfig struct {
	// UEntries/UWays size the unconditional-branch BTB.
	UEntries, UWays int
	// CEntries/CWays size the conditional-branch BTB.
	CEntries, CWays int
	// FootprintLines is the spatial range, in cache lines after the
	// unconditional branch's target, within which conditional branches
	// can be recorded and prefetched (the paper reports 8).
	FootprintLines int
}

// DefaultShotgunConfig matches the paper's evaluated configuration.
func DefaultShotgunConfig() ShotgunConfig {
	return ShotgunConfig{
		UEntries: 5120, UWays: 5,
		CEntries: 1536, CWays: 6,
		FootprintLines: 8,
	}
}

// Shotgun implements Kumar et al.'s Shotgun frontend prefetcher: the
// BTB is statically partitioned into a large U-BTB for unconditional
// branches (which also stores the spatial footprint of each branch's
// target region) and a small C-BTB for conditional branches. When a
// predicted unconditional branch hits the U-BTB, the recorded footprint
// lines are prefetched into L1i and their conditional branches are
// predecoded into the C-BTB.
//
// The design's two published limitations emerge naturally here and are
// measured for Figs. 11-12: applications whose unconditional working
// set exceeds the U-BTB thrash it, and conditional branches farther
// than FootprintLines from the last unconditional target can never be
// prefetched.
type Shotgun struct {
	cfg ShotgunConfig
	fe  Frontend

	ubtb *assoc
	cbtb *assoc

	stats btb.Stats
	pf    PrefetchStats

	// Footprint recording context: the U-BTB slot of the most recently
	// executed unconditional branch and its target line.
	recSlot     int
	recLine     uint64
	recValid    bool
	recBranchPC uint64

	// Call-return footprints: the published U-BTB also stores a
	// footprint of the code executed after each call RETURNS, so a call
	// prefetches both the callee region and the continuation. frames
	// tracks in-flight calls (their U-BTB slot and return line) so the
	// post-return fetch stream can be attributed to the right entry.
	frames []shotgunFrame
	// retFootprint parallels the U-BTB slots.
	retFootprint []uint8
	// retRec is the active return-region recording context.
	retRec shotgunFrame

	// Fig. 12 accounting: conditional branches resolving outside the
	// spatial range of the last unconditional target.
	CondResolved, CondOutsideRange int64
}

// shotgunFrame records one in-flight call for return-footprint
// training.
type shotgunFrame struct {
	slot    int
	pc      uint64 // call PC, to detect slot reuse
	retLine uint64
	valid   bool
}

// NewShotgun builds the scheme.
func NewShotgun(cfg ShotgunConfig) *Shotgun {
	return &Shotgun{
		cfg:          cfg,
		ubtb:         newAssoc(cfg.UEntries, cfg.UWays),
		cbtb:         newAssoc(cfg.CEntries, cfg.CWays),
		retFootprint: make([]uint8, cfg.UEntries),
		frames:       make([]shotgunFrame, 0, 64),
	}
}

// Name implements Scheme.
func (s *Shotgun) Name() string { return "shotgun" }

// Attach implements Scheme.
func (s *Shotgun) Attach(fe Frontend) { s.fe = fe }

// Lookup implements Scheme: conditionals go to the C-BTB, everything
// else to the U-BTB. A U-BTB hit on an unconditional branch triggers
// footprint prefetching.
func (s *Shotgun) Lookup(pc uint64, kind isa.Kind, cycle float64, taken bool) LookupResult {
	s.stats.Accesses[kind]++
	if kind == isa.KindCondBranch {
		slot := s.cbtb.lookup(pc)
		if slot < 0 {
			if taken {
				s.stats.Misses[kind]++
			}
			return LookupResult{}
		}
		res := LookupResult{Hit: true}
		if s.cbtb.pref[slot] {
			s.cbtb.pref[slot] = false
			s.pf.Used++
			res.FromPrefetch = true
		}
		return res
	}
	slot := s.ubtb.lookup(pc)
	if slot < 0 {
		s.stats.Misses[kind]++
		return LookupResult{}
	}
	if kind.IsUnconditionalDirect() {
		// Call footprint: the callee region around the target.
		s.prefetchFootprint(cache.LineOf(s.ubtb.targets[slot]), s.ubtb.footprint[slot], cycle)
		if kind == isa.KindCall {
			// Return footprint: the continuation after the call.
			s.prefetchFootprint(cache.LineOf(pc), s.retFootprint[slot], cycle)
		}
	}
	return LookupResult{Hit: true}
}

// prefetchFootprint replays a stored spatial footprint anchored at
// base: prefetches the lines into L1i and predecodes their conditional
// branches into the C-BTB.
func (s *Shotgun) prefetchFootprint(base uint64, fp uint8, cycle float64) {
	if fp == 0 {
		return
	}
	p := s.fe.Program()
	for i := 0; i < s.cfg.FootprintLines; i++ {
		if fp&(1<<uint(i)) == 0 {
			continue
		}
		line := base + uint64(i)
		s.fe.PrefetchLine(line, cycle)
		for _, idx := range p.LineBranches(line, line+1) {
			in := &p.Instrs[idx]
			if in.Kind != isa.KindCondBranch {
				continue
			}
			if s.cbtb.probe(in.PC) >= 0 {
				s.pf.Redundant++
				continue
			}
			s.cbtb.insert(in.PC, p.TargetPC(idx), in.Kind, true)
			s.pf.Issued++
		}
	}
}

// Resolve implements Scheme: fill the partition for the branch's kind
// and rotate the footprint-recording context on unconditional branches.
func (s *Shotgun) Resolve(r *Resolution) {
	if r.Kind == isa.KindCondBranch {
		s.CondResolved++
		if s.recValid {
			condLine := cache.LineOf(r.PC)
			if condLine < s.recLine || condLine >= s.recLine+uint64(s.cfg.FootprintLines) {
				s.CondOutsideRange++
			}
		} else {
			s.CondOutsideRange++
		}
		s.cbtb.insert(r.PC, r.Target, r.Kind, false)
		return
	}
	// Unconditional (jump, call, indirect, return): fill the U-BTB and
	// begin recording the footprint of this branch's target region.
	slot := s.ubtb.insert(r.PC, r.Target, r.Kind, false)
	if r.Taken {
		s.recSlot = slot
		s.recBranchPC = r.PC
		s.recLine = cache.LineOf(r.Target)
		s.recValid = true
		// A fresh execution re-learns the footprint ("remembers the
		// spatial footprint seen during the last execution").
		s.ubtb.footprint[slot] = 0
	}
	switch {
	case r.Kind == isa.KindCall:
		// Track the frame so the post-return stream trains this call's
		// return footprint. Depth-capped like a hardware structure.
		if len(s.frames) < cap(s.frames) {
			s.frames = append(s.frames, shotgunFrame{
				slot: slot, pc: r.PC, retLine: cache.LineOf(r.PC), valid: true,
			})
		}
	case r.Kind == isa.KindReturn && len(s.frames) > 0:
		// Activate return-footprint recording for the matching call.
		s.retRec = s.frames[len(s.frames)-1]
		s.frames = s.frames[:len(s.frames)-1]
		if s.retRec.valid && s.ubtb.pcs[s.retRec.slot] == s.retRec.pc {
			s.retFootprint[s.retRec.slot] = 0
		} else {
			s.retRec.valid = false
		}
	}
}

// OnFetchLine implements Scheme: record fetched lines that fall inside
// the current unconditional branch's spatial window, and inside the
// active return-continuation window.
func (s *Shotgun) OnFetchLine(line uint64, cycle float64) {
	if s.recValid {
		if line >= s.recLine && line < s.recLine+uint64(s.cfg.FootprintLines) {
			// The recording entry may have been evicted; verify the slot
			// still holds the recording branch before mutating.
			if s.ubtb.pcs[s.recSlot] != s.recBranchPC {
				s.recValid = false
			} else {
				s.ubtb.footprint[s.recSlot] |= 1 << uint(line-s.recLine)
			}
		}
	}
	if s.retRec.valid {
		if line >= s.retRec.retLine && line < s.retRec.retLine+uint64(s.cfg.FootprintLines) {
			if s.ubtb.pcs[s.retRec.slot] != s.retRec.pc {
				s.retRec.valid = false
			} else {
				s.retFootprint[s.retRec.slot] |= 1 << uint(line-s.retRec.retLine)
			}
		}
	}
}

// OnLineMiss implements Scheme; Shotgun trains on executions, not
// misses.
func (s *Shotgun) OnLineMiss(uint64, float64) {}

// InsertPrefetch implements Scheme; Shotgun has no software prefetch
// interface (brprefetch never appears in the binaries it runs).
func (s *Shotgun) InsertPrefetch(uint64, uint64, isa.Kind, float64) InsertOutcome {
	return InsertIgnored
}

// ProbeDemand implements Scheme.
func (s *Shotgun) ProbeDemand(pc uint64) bool {
	return s.ubtb.probe(pc) >= 0 || s.cbtb.probe(pc) >= 0
}

// Stats implements Scheme.
func (s *Shotgun) Stats() *btb.Stats { return &s.stats }

// PrefetchStats implements Scheme. Redundant predecodes count
// against Issued so accuracy is comparable across schemes (the
// baseline charges Twig the same way).
func (s *Shotgun) PrefetchStats() PrefetchStats {
	out := s.pf
	out.Issued += out.Redundant
	return out
}
