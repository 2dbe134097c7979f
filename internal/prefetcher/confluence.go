package prefetcher

import (
	"twig/internal/btb"
	"twig/internal/isa"
)

// ConfluenceConfig sizes the Confluence frontend.
type ConfluenceConfig struct {
	// BTB sizes the unified block-grain BTB (AirBTB stand-in).
	BTB btb.Config
	// HistoryLines is the capacity of the SHIFT-style temporal history
	// of L1i miss lines.
	HistoryLines int
	// ReplayDepth is how many history lines are replayed (prefetched +
	// predecoded) per stream match.
	ReplayDepth int
}

// DefaultConfluenceConfig mirrors the paper's evaluation: the same
// total BTB budget as the baseline, a SHIFT history sized like the
// original work's shared history (32K blocks), and a modest replay
// depth.
func DefaultConfluenceConfig() ConfluenceConfig {
	return ConfluenceConfig{
		BTB:          btb.DefaultConfig(),
		HistoryLines: 32 << 10,
		ReplayDepth:  12,
	}
}

// Confluence implements Kaynak et al.'s Confluence in the simplified
// form this repository needs: a unified BTB whose contents are filled
// at cache-block granularity by predecoding, driven by a SHIFT-style
// temporal stream of I-cache miss addresses. When a demand L1i miss
// matches a previously recorded history position, the following history
// lines are replayed: prefetched into L1i and all their branches
// predecoded into the BTB.
//
// The published design physically couples BTB and L1i contents
// (AirBTB); here the coupling is behavioural — BTB entries arrive with
// prefetched blocks — which preserves the coverage/accuracy character
// (temporal streaming covers only recurring streams, Fig. 10) without
// replicating the storage layout. DESIGN.md records this substitution.
type Confluence struct {
	cfg ConfluenceConfig
	fe  Frontend

	b     *assoc
	stats btb.Stats
	pf    PrefetchStats

	history []uint64
	histPos int
	// lastPos holds each line's most recent history position + 1 (0 =
	// absent), indexed by line - firstLine over the lines of the
	// attached program's text, where every line the fetch engine
	// misses on lies.
	lastPos   []int32
	firstLine uint64
}

// NewConfluence builds the scheme.
func NewConfluence(cfg ConfluenceConfig) *Confluence {
	return &Confluence{
		cfg:     cfg,
		b:       newAssoc(cfg.BTB.Entries, cfg.BTB.Ways),
		history: make([]uint64, 0, cfg.HistoryLines),
	}
}

// Name implements Scheme.
func (c *Confluence) Name() string { return "confluence" }

// Attach implements Scheme: it sizes the last-position table to the
// program's text.
func (c *Confluence) Attach(fe Frontend) {
	c.fe = fe
	first, end := fe.Program().TextLines()
	c.firstLine = first
	c.lastPos = make([]int32, end-first)
}

// Lookup implements Scheme.
func (c *Confluence) Lookup(pc uint64, kind isa.Kind, cycle float64, taken bool) LookupResult {
	c.stats.Accesses[kind]++
	slot := c.b.lookup(pc)
	if slot < 0 {
		if taken {
			c.stats.Misses[kind]++
		}
		return LookupResult{}
	}
	res := LookupResult{Hit: true}
	if c.b.pref[slot] {
		c.b.pref[slot] = false
		c.pf.Used++
		res.FromPrefetch = true
	}
	return res
}

// Resolve implements Scheme: demand fill.
func (c *Confluence) Resolve(r *Resolution) {
	c.b.insert(r.PC, r.Target, r.Kind, false)
}

// OnFetchLine implements Scheme; Confluence trains on misses.
func (c *Confluence) OnFetchLine(uint64, float64) {}

// OnLineMiss implements Scheme: record the miss in the temporal history
// and replay the stream that previously followed this line, if any.
func (c *Confluence) OnLineMiss(line uint64, cycle float64) {
	slot := &c.lastPos[line-c.firstLine]
	prev := int(*slot) // position+1 of the previous occurrence

	// Record.
	if len(c.history) < c.cfg.HistoryLines {
		c.history = append(c.history, line)
		*slot = int32(len(c.history))
	} else {
		// Circular overwrite; stale lastPos entries are detected below
		// by re-checking the history contents.
		if old := &c.lastPos[c.history[c.histPos]-c.firstLine]; int(*old) == c.histPos+1 {
			*old = 0
		}
		c.history[c.histPos] = line
		*slot = int32(c.histPos + 1)
		c.histPos = (c.histPos + 1) % c.cfg.HistoryLines
	}

	if prev == 0 {
		return
	}
	// Replay the lines that followed the previous occurrence.
	p := c.fe.Program()
	for i := 0; i < c.cfg.ReplayDepth; i++ {
		pos := (prev + i) % len(c.history)
		if pos == c.histPos && len(c.history) == c.cfg.HistoryLines {
			break // wrapped into the write frontier
		}
		if pos >= len(c.history) {
			break
		}
		next := c.history[pos]
		c.fe.PrefetchLine(next, cycle)
		for _, idx := range p.LineBranches(next, next+1) {
			in := &p.Instrs[idx]
			if c.b.probe(in.PC) >= 0 {
				c.pf.Redundant++
				continue
			}
			c.b.insert(in.PC, p.TargetPC(idx), in.Kind, true)
			c.pf.Issued++
		}
	}
}

// InsertPrefetch implements Scheme; no software prefetch interface.
func (c *Confluence) InsertPrefetch(uint64, uint64, isa.Kind, float64) InsertOutcome {
	return InsertIgnored
}

// ProbeDemand implements Scheme.
func (c *Confluence) ProbeDemand(pc uint64) bool { return c.b.probe(pc) >= 0 }

// Stats implements Scheme.
func (c *Confluence) Stats() *btb.Stats { return &c.stats }

// PrefetchStats implements Scheme. Redundant predecodes count
// against Issued so accuracy is comparable across schemes (the
// baseline charges Twig the same way).
func (c *Confluence) PrefetchStats() PrefetchStats {
	out := c.pf
	out.Issued += out.Redundant
	return out
}
