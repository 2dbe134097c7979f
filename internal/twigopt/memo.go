package twigopt

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"

	"twig/internal/profile"
)

// selectConfig holds the six Config fields steps 1–2 read. choose takes
// nothing else, so a memo key that holds all of it cannot leave out a
// field selection depends on.
type selectConfig struct {
	PrefetchDistance  float64
	MinProbability    float64
	MinMissCount      int64
	MaxSitesPerBranch int
	CoverageTarget    float64
	NearestSite       bool
}

func (c Config) selectConfig() selectConfig {
	return selectConfig{
		PrefetchDistance:  c.PrefetchDistance,
		MinProbability:    c.MinProbability,
		MinMissCount:      c.MinMissCount,
		MaxSitesPerBranch: c.MaxSitesPerBranch,
		CoverageTarget:    c.CoverageTarget,
		NearestSite:       c.NearestSite,
	}
}

// memoKey names one selection: the digest of a profile's content and
// the selection fields it was chosen under.
type memoKey struct {
	digest uint64
	cfg    selectConfig
}

// memoSize bounds the table, sized from the traffic. perfbench's sweep
// alternates two profiles; the fig18 and fig27 slice on three apps
// makes 24 calls, 3 selections and 21 reuses, each at most 2 other
// selections after the one it reuses. The whole registry at 100k
// instructions makes 151 calls and 117 distinct selections (fig26's
// distances, the ablations and retrained profiles are each used once);
// its 34 reuses come at most 20 (-j 2) or 52 (-j 1) other selections
// later, ext-layout and fig27 reaching back to each app's first
// analysis. Sixty-four entries keep all of them. An entry holds 20
// bytes per site, and a 1M-instruction selection has 8,144 (drupal) to
// 31,226 (finagle-http) sites, so a full table holds at most about
// 40 MB.
const memoSize = 64

// memo is the process-wide table of recent selections, least recently
// used first. It holds selections only, never a Program or a Profile.
var memo struct {
	sync.Mutex
	entries []memoEntry
}

type memoEntry struct {
	key memoKey
	sel *selection
}

// selectionFor returns prof's selection under sc, from the table when
// an equal profile was selected under sc before. Two calls that miss
// at once both choose; the second to finish finds the first's entry
// and returns it, so the table holds each key once.
func selectionFor(prof *profile.Profile, sc selectConfig) *selection {
	key := memoKey{digest: digest(prof), cfg: sc}
	memo.Lock()
	sel := find(key)
	memo.Unlock()
	if sel != nil {
		return sel
	}
	sel = choose(prof, sc)
	memo.Lock()
	defer memo.Unlock()
	if prev := find(key); prev != nil {
		return prev
	}
	if len(memo.entries) == memoSize {
		memo.entries = append(memo.entries[:0], memo.entries[1:]...)
	}
	memo.entries = append(memo.entries, memoEntry{key, sel})
	return sel
}

// find returns key's selection and marks it most recently used, or
// nil. The caller holds memo's lock.
func find(key memoKey) *selection {
	for i, e := range memo.entries {
		if e.key == key {
			copy(memo.entries[i:], memo.entries[i+1:])
			memo.entries[len(memo.entries)-1] = e
			return e.sel
		}
	}
	return nil
}

// digestSeed keys every digest of one process; digests are compared
// only within it.
var digestSeed = maphash.MakeSeed()

// digest is a 64-bit hash of everything selection reads of prof: the
// log, the samples, the block execution counts and the miss counts.
// Fields are packed a chunk at a time into a buffer rather than hashed
// as memory, so struct padding never enters it, and the map's entries
// are hashed one by one and summed, which does not depend on iteration
// order. Equal content always gives equal digests; distinct content
// collides with probability about 2⁻⁶⁴ per pair, against at most
// memoSize entries.
func digest(prof *profile.Profile) uint64 {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	var buf [4096]byte
	le := binary.LittleEndian
	for i, n := range []int{len(prof.Log), len(prof.Samples), len(prof.BlockExecs), len(prof.MissCounts)} {
		le.PutUint64(buf[8*i:], uint64(n))
	}
	h.Write(buf[:32])
	for log := prof.Log; len(log) > 0; {
		chunk := log[:min(len(log), len(buf)/16)]
		log = log[len(chunk):]
		for i, r := range chunk {
			b := buf[16*i : 16*i+16]
			le.PutUint32(b, uint32(r.FromBlock))
			le.PutUint32(b[4:], uint32(r.ToBlock))
			le.PutUint64(b[8:], math.Float64bits(r.Cycle))
		}
		h.Write(buf[:16*len(chunk)])
	}
	for samples := prof.Samples; len(samples) > 0; {
		chunk := samples[:min(len(samples), len(buf)/20)]
		samples = samples[len(chunk):]
		for i := range chunk {
			s, b := &chunk[i], buf[20*i:20*i+20]
			le.PutUint32(b, uint32(s.Branch))
			le.PutUint64(b[4:], math.Float64bits(s.MissCycle))
			le.PutUint32(b[12:], uint32(s.End))
			le.PutUint32(b[16:], uint32(s.Len))
		}
		h.Write(buf[:20*len(chunk)])
	}
	for execs := prof.BlockExecs; len(execs) > 0; {
		chunk := execs[:min(len(execs), len(buf)/8)]
		execs = execs[len(chunk):]
		for i, n := range chunk {
			le.PutUint64(buf[8*i:], uint64(n))
		}
		h.Write(buf[:8*len(chunk)])
	}
	var misses uint64
	for br, n := range prof.MissCounts {
		le.PutUint32(buf[:4], uint32(br))
		le.PutUint64(buf[4:12], uint64(n))
		misses += maphash.Bytes(digestSeed, buf[:12])
	}
	le.PutUint64(buf[:8], misses)
	h.Write(buf[:8])
	return h.Sum64()
}
