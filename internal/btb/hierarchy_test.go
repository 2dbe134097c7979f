package btb

import (
	"bytes"
	"testing"

	"twig/internal/checkpoint"
	"twig/internal/isa"
	"twig/internal/rng"
)

// smallHierarchy returns a geometry tiny enough to force evictions,
// demotions and region-table churn within a few hundred operations.
func smallHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{Entries: 16, Ways: 2},
		L2: LastLevelConfig{Entries: 64, Ways: 4, Regions: 4, RegionBits: 8, DeltaBits: 12},
	}
}

// hierOps generates a deterministic op tape: (pc, target, kind,
// isLookup) tuples over a working set big enough to thrash the small
// geometry.
type hierOp struct {
	pc, target uint64
	kind       isa.Kind
	lookup     bool
}

func hierTape(seed uint64, n int) []hierOp {
	r := rng.New(seed)
	kinds := []isa.Kind{isa.KindCondBranch, isa.KindJump, isa.KindCall}
	ops := make([]hierOp, n)
	for i := range ops {
		pc := 0x1000 + uint64(r.Intn(2048))*4
		delta := int64(r.Intn(8192)) - 4096
		ops[i] = hierOp{
			pc:     pc,
			target: uint64(int64(pc) + delta),
			kind:   kinds[r.Intn(len(kinds))],
			lookup: r.Intn(3) != 0,
		}
	}
	return ops
}

// TestHierarchyL1Lockstep drives a Hierarchy and a flat reference BTB
// with the identical lookup/insert sequence and requires the L1's
// hit/miss behaviour to match the flat BTB exactly at every step —
// the bit-identity property behind the "hierarchy misses ≤ baseline
// misses" CrossScheme law, and a semantics guard on the InsertEvict
// refactor of Insert.
func TestHierarchyL1Lockstep(t *testing.T) {
	cfg := smallHierarchy()
	h := NewHierarchy(cfg)
	ref := New(cfg.L1)
	for i, op := range hierTape(0xA11CE, 4000) {
		if op.lookup {
			_, refHit := ref.Lookup(op.pc)
			if got := h.LookupL1(op.pc); got != refHit {
				t.Fatalf("op %d: L1 hit %v, flat reference %v", i, got, refHit)
			}
			if !refHit {
				// Consume any last-level copy like the scheme does; it
				// must never affect the L1's behaviour.
				h.LookupL2(op.pc)
			}
		} else {
			ref.Insert(op.pc, op.target, op.kind)
			h.Insert(op.pc, op.target, op.kind)
		}
	}
	if h.L1Hits+h.L1Misses == 0 {
		t.Fatal("tape produced no lookups")
	}
}

// TestHierarchyNoEntryLost checks the victim-demotion path: after an
// insert, the entry is resident (Probe) and a compressible victim just
// displaced from the L1 is still findable at the last level with its
// exact target and kind.
func TestHierarchyNoEntryLost(t *testing.T) {
	cfg := smallHierarchy()
	h := NewHierarchy(cfg)
	ref := New(cfg.L1)
	inserted := map[uint64]uint64{}
	for _, op := range hierTape(0xBEEF, 4000) {
		if op.lookup {
			continue
		}
		ev, displaced, _ := ref.InsertEvict(op.pc, op.target, op.kind)
		h.Insert(op.pc, op.target, op.kind)
		inserted[op.pc] = op.target
		if !h.Probe(op.pc) {
			t.Fatalf("pc %x absent immediately after insert", op.pc)
		}
		if displaced && isa.FitsSigned(int64(ev.Target)-int64(ev.PC), cfg.L2.DeltaBits) {
			// The demoted victim must be recoverable unless a last-level
			// set conflict or region eviction has already displaced it —
			// verify exact reconstruction when it is still present.
			if target, kind, hit := h.LookupL2(ev.PC); hit {
				if target != ev.Target || kind != ev.Kind {
					t.Fatalf("promotion corrupted entry %x: got (%x, %v), want (%x, %v)",
						ev.PC, target, kind, ev.Target, ev.Kind)
				}
				// LookupL2 consumed it; restore via a fresh demand fill so
				// later iterations keep a realistic population.
				h.Insert(ev.PC, ev.Target, ev.Kind)
				ref.Insert(ev.PC, ev.Target, ev.Kind)
				inserted[ev.PC] = ev.Target
			}
		}
	}
	if h.Demotions == 0 {
		t.Fatal("tape produced no demotions")
	}
	// Every last-level hit must reconstruct the exact target last
	// inserted for that pc.
	for pc, want := range inserted {
		if target, _, hit := h.LookupL2(pc); hit && target != want {
			t.Fatalf("pc %x reconstructed target %x, want %x", pc, target, want)
		}
	}
}

// TestHierarchyExclusive checks the exclusivity invariant: a demand
// fill of pc invalidates any last-level copy, and a last-level hit
// consumes the entry.
func TestHierarchyExclusive(t *testing.T) {
	cfg := smallHierarchy()
	h := NewHierarchy(cfg)
	// Fill one L1 set (pcs congruent mod sets*4... use same set): with
	// 8 sets (16/2), pcs stepping by 8 share a set.
	base := uint64(0x2000)
	step := uint64(cfg.L1.Sets())
	for i := uint64(0); i < 3; i++ {
		h.Insert(base+i*step, base+i*step+16, isa.KindJump)
	}
	// The set holds 2 ways; one victim was demoted. Find it at L2.
	victim := base // first-inserted is the LRU victim
	if target, _, hit := h.LookupL2(victim); !hit || target != victim+16 {
		t.Fatalf("demoted victim %x not at last level (hit=%v target=%x)", victim, hit, target)
	}
	// Consumed: a second probe must miss.
	if _, _, hit := h.LookupL2(victim); hit {
		t.Fatal("last-level hit did not consume the entry")
	}
	// Re-insert, then demand-fill the same pc: the L2 copy must die.
	h.Insert(victim, victim+16, isa.KindJump)
	for i := uint64(1); i < 3; i++ {
		h.Insert(base+i*step, base+i*step+16, isa.KindJump)
	}
	// victim was demoted again; now a demand fill of victim into L1
	// invalidates the last-level copy.
	h.Insert(victim, victim+32, isa.KindJump)
	if e := h.llFind(victim); e >= 0 {
		t.Fatal("demand fill left a stale last-level copy")
	}
}

// TestHierarchyNoPCAtBothLevels drives a random mix of L1 lookups,
// last-level lookups and demand fills over a working set that churns
// the small geometry's L1 sets, last-level sets and region table, with
// a checkpoint round trip halfway, and requires after every operation
// that no pc is live at both levels. Insert skips its last-level probe
// when the fill updated a resident L1 entry, and demote writes its
// victim without looking for a resident copy; both rely on this.
func TestHierarchyNoPCAtBothLevels(t *testing.T) {
	cfg := smallHierarchy()
	h := NewHierarchy(cfg)
	tape := hierTape(0x5EED, 6000)
	r := rng.New(7)
	for i, op := range tape {
		if i == len(tape)/2 {
			w := checkpoint.NewWriter()
			if err := h.SaveState(w); err != nil {
				t.Fatal(err)
			}
			rd, err := checkpoint.Open(w.Finish())
			if err != nil {
				t.Fatal(err)
			}
			h = NewHierarchy(cfg)
			if err := h.RestoreState(rd); err != nil {
				t.Fatal(err)
			}
		}
		switch {
		case !op.lookup:
			h.Insert(op.pc, op.target, op.kind)
		case r.Intn(2) == 0:
			h.LookupL1(op.pc)
		default:
			h.LookupL2(op.pc)
		}
		for e := range h.llRegion {
			if !h.llLive(e) {
				continue
			}
			pc := h.regionBase[h.llRegion[e]]<<h.regionShift | uint64(h.llOff[e])
			if h.l1.Probe(pc) {
				t.Fatalf("op %d: pc %x is live in the L1 and the last level", i, pc)
			}
		}
	}
	if h.Demotions == 0 || h.Promotions == 0 || h.RegionEvictions == 0 {
		t.Fatalf("tape did not exercise the hierarchy: %d demotions, %d promotions, %d region evictions",
			h.Demotions, h.Promotions, h.RegionEvictions)
	}
}

// TestHierarchyRegionEviction forces region-table thrash and checks
// generational invalidation: entries from an evicted region must be
// dead even though their slots still name the (reused) region.
func TestHierarchyRegionEviction(t *testing.T) {
	cfg := smallHierarchy() // 4 regions of 256 bytes
	h := NewHierarchy(cfg)
	regionSpan := uint64(1) << cfg.L2.RegionBits
	// Demote entries from 6 distinct regions through L1 set pressure:
	// two inserts into one L1 set displace the first into the L2.
	step := uint64(cfg.L1.Sets())
	var victims []uint64
	for i := uint64(0); i < 6; i++ {
		pc := 0x10000 + i*regionSpan
		h.Insert(pc, pc+8, isa.KindJump)
		h.Insert(pc+step*4, pc+step*4+8, isa.KindJump) // may share set only if congruent
		// Force demotion deterministically: insert two more pcs mapping
		// to pc's L1 set.
		h.Insert(pc+step*4096, pc+step*4096+8, isa.KindJump)
		victims = append(victims, pc)
	}
	if h.RegionEvictions == 0 {
		t.Skip("geometry did not force region evictions with this tape")
	}
	// Entries of the two oldest regions must be gone.
	dead := 0
	for _, pc := range victims {
		if _, _, hit := h.LookupL2(pc); !hit {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("region evictions occurred but every entry survived")
	}
}

// TestHierarchyCheckpointRoundTrip saves mid-tape state, restores into
// a fresh hierarchy, and requires identical behaviour on the remainder
// of the tape (hits, targets, counters and serialized bytes).
func TestHierarchyCheckpointRoundTrip(t *testing.T) {
	cfg := smallHierarchy()
	h := NewHierarchy(cfg)
	tape := hierTape(0xCAFE, 3000)
	for _, op := range tape[:1500] {
		if op.lookup {
			if !h.LookupL1(op.pc) {
				h.LookupL2(op.pc)
			}
		} else {
			h.Insert(op.pc, op.target, op.kind)
		}
	}
	w := checkpoint.NewWriter()
	if err := h.SaveState(w); err != nil {
		t.Fatal(err)
	}
	data := w.Finish()

	h2 := NewHierarchy(cfg)
	r, err := checkpoint.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.RestoreState(r); err != nil {
		t.Fatal(err)
	}
	run := func(x *Hierarchy) []byte {
		var buf bytes.Buffer
		for _, op := range tape[1500:] {
			if op.lookup {
				if x.LookupL1(op.pc) {
					buf.WriteByte('1')
				} else if target, _, hit := x.LookupL2(op.pc); hit {
					buf.WriteByte('2')
					buf.WriteByte(byte(target))
				} else {
					buf.WriteByte('0')
				}
			} else {
				x.Insert(op.pc, op.target, op.kind)
			}
		}
		sw := checkpoint.NewWriter()
		if err := x.SaveState(sw); err != nil {
			t.Fatal(err)
		}
		return append(sw.Finish(), buf.Bytes()...)
	}
	if !bytes.Equal(run(h), run(h2)) {
		t.Fatal("restored hierarchy diverged from the original")
	}
}

// TestHierarchyRestoreRejectsBadSlot corrupts a serialized region slot
// out of range and requires RestoreState to reject it.
func TestHierarchyRestoreRejectsBadSlot(t *testing.T) {
	cfg := smallHierarchy()
	h := NewHierarchy(cfg)
	for _, op := range hierTape(0xD00D, 500) {
		if !op.lookup {
			h.Insert(op.pc, op.target, op.kind)
		}
	}
	// Out-of-range region slot: llRegion entries must be < Regions.
	h.llRegion[0] = int32(cfg.L2.Regions + 7)
	w := checkpoint.NewWriter()
	if err := h.SaveState(w); err != nil {
		t.Fatal(err)
	}
	h2 := NewHierarchy(cfg)
	r, err := checkpoint.Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.RestoreState(r); err == nil {
		t.Fatal("RestoreState accepted an out-of-range region slot")
	}
}

// TestLastLevelStorage sanity-checks the compressed storage estimate:
// a default last-level entry (41 bits: region index + offset + delta +
// meta) costs barely half of a full L1 entry (~79 bits).
func TestLastLevelStorage(t *testing.T) {
	l1 := DefaultConfig().StorageBytes()
	l2cfg := DefaultLastLevelConfig()
	l2 := l2cfg.StorageBytes()
	if l2 == 0 {
		t.Fatal("default last-level storage estimate is zero")
	}
	perL1 := float64(l1) / float64(DefaultConfig().Entries)
	perL2 := float64(l2-l2cfg.Regions*(48-l2cfg.RegionBits)/8) / float64(l2cfg.Entries)
	if perL2 >= perL1*0.55 {
		t.Fatalf("last-level entry costs %.1f bytes, want barely half of L1's %.1f", perL2, perL1)
	}
	if (LastLevelConfig{Entries: 48, Ways: 5}).StorageBytes() != 0 {
		t.Fatal("invalid geometry should report zero storage")
	}
}

// FuzzHierarchy drives a Hierarchy and a flat reference BTB in
// lockstep from a fuzzer-chosen op tape: L1 behaviour must match the
// flat BTB exactly, every last-level hit must reconstruct the exact
// inserted target for that pc, and Probe must never contradict the
// lookups.
func FuzzHierarchy(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x10, 0x81, 0x42, 0x10})
	f.Add([]byte{0xFF, 0x00, 0x00, 0x80, 0x00, 0x00, 0x7F, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, tape []byte) {
		cfg := smallHierarchy()
		h := NewHierarchy(cfg)
		ref := New(cfg.L1)
		last := map[uint64]Entry{}
		kinds := []isa.Kind{isa.KindCondBranch, isa.KindJump, isa.KindCall, isa.KindIndirectJump}
		for i := 0; i+3 <= len(tape); i += 3 {
			op := tape[i]
			pc := 0x4000 + uint64(tape[i+1])*4 + uint64(op&0x30)<<8
			delta := (int64(tape[i+2]) - 128) * 4
			target := uint64(int64(pc) + delta)
			kind := kinds[int(op>>2)&3]
			if op&1 == 0 {
				ref.Insert(pc, target, kind)
				h.Insert(pc, target, kind)
				last[pc] = Entry{PC: pc, Target: target, Kind: kind}
				if !h.Probe(pc) {
					t.Fatalf("pc %x absent after insert", pc)
				}
			} else {
				_, refHit := ref.Lookup(pc)
				if got := h.LookupL1(pc); got != refHit {
					t.Fatalf("L1 hit %v, flat reference %v for pc %x", got, refHit, pc)
				}
				if !refHit {
					if target, _, hit := h.LookupL2(pc); hit {
						want, ok := last[pc]
						if !ok {
							t.Fatalf("last level invented pc %x", pc)
						}
						if target != want.Target {
							t.Fatalf("pc %x reconstructed %x, want %x", pc, target, want.Target)
						}
						// Mirror the scheme: the consumed entry returns via
						// the resolve-time demand fill.
						ref.Insert(pc, want.Target, want.Kind)
						h.Insert(pc, want.Target, want.Kind)
					}
				}
			}
		}
		// Closing invariant: the hierarchy never holds an entry it was
		// never given.
		for e := range h.llRegion {
			if h.llLive(e) {
				rs := h.llRegion[e]
				pc := h.regionBase[rs]<<h.regionShift | uint64(h.llOff[e])
				if _, ok := last[pc]; !ok {
					t.Fatalf("live last-level entry for never-inserted pc %x", pc)
				}
			}
		}
	})
}
