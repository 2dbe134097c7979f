package cache

import (
	"testing"
	"testing/quick"
)

func TestConfigGeometry(t *testing.T) {
	c := Config{SizeBytes: 32 << 10, Ways: 8}
	if got := c.Sets(); got != 64 {
		t.Fatalf("Sets = %d, want 64", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Config{SizeBytes: 3000, Ways: 7}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestLookupInsert(t *testing.T) {
	c := New(Config{SizeBytes: 8 * LineBytes, Ways: 2}) // 4 sets x 2 ways
	if c.Access(5) {
		t.Fatal("hit in an empty cache")
	}
	if !c.Access(5) {
		t.Fatal("a demand miss did not fill the line")
	}
	if c.Accesses != 2 || c.Misses != 1 {
		t.Fatalf("counters: accesses=%d misses=%d, want 2/1", c.Accesses, c.Misses)
	}
}

func TestProbeDoesNotCount(t *testing.T) {
	c := New(Config{SizeBytes: 8 * LineBytes, Ways: 2})
	c.Fill(1)
	before := c.Accesses
	if !c.Probe(1) || c.Probe(2) {
		t.Fatal("Probe gave wrong presence")
	}
	if c.Accesses != before {
		t.Fatal("Probe changed demand counters")
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 1 set x 2 ways: lines 0 and 4... all map to set (line & 0).
	c := New(Config{SizeBytes: 2 * LineBytes, Ways: 2}) // 1 set, 2 ways
	c.Fill(10)
	c.Fill(20)
	c.Access(10) // make 10 most recent
	c.Fill(30)   // evicts 20 (LRU)
	if !c.Probe(10) {
		t.Fatal("recently used line evicted")
	}
	if c.Probe(20) {
		t.Fatal("LRU line not evicted")
	}
	if !c.Probe(30) {
		t.Fatal("inserted line absent")
	}
}

// TestInsertIdempotent pins that filling a present line changes
// nothing, recency included: a prefetch of a resident line must not
// protect it from eviction.
func TestInsertIdempotent(t *testing.T) {
	c := New(Config{SizeBytes: 2 * LineBytes, Ways: 2})
	if !c.Fill(1) || c.Fill(1) || !c.Fill(2) {
		t.Fatal("Fill misreported whether it filled")
	}
	if !c.Probe(1) || !c.Probe(2) {
		t.Fatal("duplicate fill displaced a line")
	}
	c.Fill(1) // present: recency unchanged, so 1 stays the LRU way
	c.Fill(3)
	if c.Probe(1) || !c.Probe(2) || !c.Probe(3) {
		t.Fatal("filling a present line refreshed its recency")
	}
}

// TestCacheMatchesReferenceModel cross-checks the set-associative LRU
// against a naive per-set reference implementation on random streams
// of demand accesses and fills.
func TestCacheMatchesReferenceModel(t *testing.T) {
	type refSet struct{ lines []uint64 }              // most recent last
	cfg := Config{SizeBytes: 16 * LineBytes, Ways: 4} // 4 sets x 4 ways
	check := func(seed uint64) bool {
		c := New(cfg)
		sets := make([]refSet, cfg.Sets())
		x := seed
		for step := 0; step < 2000; step++ {
			// xorshift for the access stream
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			line := x % 64
			demand := x>>32&3 != 0
			si := int(line) % cfg.Sets()
			rs := &sets[si]
			// reference lookup: a demand hit moves the line to most
			// recent, a fill of a present line leaves it where it is
			refHit := false
			for i, l := range rs.lines {
				if l == line {
					refHit = true
					if demand {
						rs.lines = append(append(rs.lines[:i:i], rs.lines[i+1:]...), line)
					}
					break
				}
			}
			if !refHit {
				if len(rs.lines) == cfg.Ways {
					rs.lines = rs.lines[1:]
				}
				rs.lines = append(rs.lines, line)
			}
			if demand {
				if got := c.Access(line); got != refHit {
					return false
				}
			} else if filled := c.Fill(line); filled == refHit {
				return false
			}
		}
		for si := range sets {
			for _, l := range sets[si].lines {
				if !c.Probe(l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := DefaultHierarchy()
	h := NewHierarchy(cfg)

	// First touch misses everywhere: memory latency.
	if lat := h.Fetch(100); lat != cfg.MemLat {
		t.Fatalf("cold fetch latency %f, want %f", lat, cfg.MemLat)
	}
	// Second touch: L1 hit.
	if lat := h.Fetch(100); lat != 0 {
		t.Fatalf("warm fetch latency %f, want 0", lat)
	}

	// Evict from L1 only (fill one L1 set past its ways), keeping L2:
	// lines that alias in L1's 64 sets.
	setAlias := func(i int) uint64 { return 100 + uint64(i)*uint64(cfg.L1.Sets()) }
	for i := 1; i <= cfg.L1.Ways; i++ {
		h.Fetch(setAlias(i))
	}
	if lat := h.Fetch(100); lat != cfg.L2Lat {
		t.Fatalf("L1-evicted fetch latency %f, want L2 %f", lat, cfg.L2Lat)
	}
}

func TestPrefetchFillsWithoutDemandCount(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	lat := h.Prefetch(7)
	if lat == 0 {
		t.Fatal("cold prefetch reported zero latency")
	}
	if h.L1.Accesses != 0 {
		t.Fatal("prefetch counted as demand access")
	}
	if got := h.Fetch(7); got != 0 {
		t.Fatalf("fetch after prefetch latency %f, want 0", got)
	}
}

func TestLineOf(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 || LineOf(6400) != 100 {
		t.Fatal("LineOf wrong")
	}
}
