// Package profile models the paper's production profiling setup: Intel
// LBR (Last Branch Record) sampling triggered by the "baclears.any"
// event (§4.1). The real system samples, on each BTB-miss frontend
// resteer, the last 32 taken branches with their cycle timestamps;
// from those, Twig reconstructs the basic blocks executed before the
// miss and their cycle distances.
//
// The Collector is a telemetry.Sink on the pipeline: it maintains a
// 32-entry ring of (source block, destination block, cycle) records
// updated on every taken branch, counts basic-block executions, and, on
// each sampled BTB miss, snapshots the ring into a Sample.
//
// Samples reference stable block IDs and stable branch IDs, so the
// offline analysis (package twigopt) keeps working after the binary is
// relinked with injected prefetches.
package profile

import (
	"twig/internal/exec"
	"twig/internal/pipeline"
	"twig/internal/program"
	"twig/internal/telemetry"
)

// LBRDepth is the hardware Last Branch Record depth (Intel: 32).
const LBRDepth = 32

// Record is one LBR entry: a taken branch from one basic block to
// another, with the cycle at which it was recorded.
type Record struct {
	// FromBlock and ToBlock are stable block IDs.
	FromBlock, ToBlock int32
	// Cycle is the frontend cycle timestamp.
	Cycle float64
}

// Sample is one BTB-miss profile sample: the missed branch and the LBR
// contents at the miss.
type Sample struct {
	// Branch is the stable ID of the missed branch instruction.
	Branch int32
	// MissCycle is when the miss resteer was discovered.
	MissCycle float64
	// History holds the LBR records, most recent first. Fewer than
	// LBRDepth entries appear near the start of execution.
	History []Record
}

// Profile is the aggregate output of a profiling run.
type Profile struct {
	// Samples are the collected BTB-miss samples.
	Samples []Sample
	// BlockExecs counts executions of each basic block (indexed by
	// stable block ID) over the whole run — the denominator of Twig's
	// conditional-probability computation (Fig. 13b).
	BlockExecs []int64
	// MissCounts counts sampled BTB misses per branch (stable ID keys).
	MissCounts map[int32]int64
	// Instructions is the length of the profiled window.
	Instructions int64
}

// Collector gathers a Profile from a simulation run. It is the run's
// telemetry.Sink and observes block entries, taken branches and BTB
// misses.
type Collector struct {
	telemetry.NopSink

	p    *program.Program
	rate int // sample every rate-th miss (1 = every miss)

	ring    [LBRDepth]Record
	ringPos int
	ringLen int

	missSeen int64
	prof     *Profile
}

// NewCollector returns a collector for the given (unmodified) program.
// sampleRate of n records every n-th BTB miss; the paper's perf-based
// sampling is sparser, but denser samples only improve the analysis and
// the sensitivity to rate is studied in the ablation benches.
func NewCollector(p *program.Program, sampleRate int) *Collector {
	if sampleRate < 1 {
		sampleRate = 1
	}
	return &Collector{
		p:    p,
		rate: sampleRate,
		prof: &Profile{
			BlockExecs: make([]int64, len(p.Blocks)),
			MissCounts: make(map[int32]int64),
		},
	}
}

// BlockEnter implements telemetry.Sink: it counts the block's
// execution.
func (c *Collector) BlockEnter(blockID int32) {
	c.prof.BlockExecs[blockID]++
}

// Taken implements telemetry.Sink: it pushes the branch onto the LBR
// ring.
func (c *Collector) Taken(fromIdx, toIdx int32, cycle float64) {
	p := c.p
	c.ring[c.ringPos] = Record{
		FromBlock: p.Blocks[p.BlockOf[fromIdx]].ID,
		ToBlock:   p.Blocks[p.BlockOf[toIdx]].ID,
		Cycle:     cycle,
	}
	c.ringPos = (c.ringPos + 1) % LBRDepth
	if c.ringLen < LBRDepth {
		c.ringLen++
	}
}

// BTBMiss implements telemetry.Sink: it counts the miss and, every
// sample-rate-th miss, snapshots the LBR ring into a Sample.
func (c *Collector) BTBMiss(_ int64, cycle float64, branchIdx int32, _ uint64, _ string) {
	branchID := c.p.Instrs[branchIdx].ID
	c.prof.MissCounts[branchID]++
	c.missSeen++
	if c.missSeen%int64(c.rate) != 0 {
		return
	}
	hist := make([]Record, c.ringLen)
	for i := 0; i < c.ringLen; i++ {
		// Most recent first.
		hist[i] = c.ring[(c.ringPos-1-i+LBRDepth)%LBRDepth]
	}
	c.prof.Samples = append(c.prof.Samples, Sample{
		Branch:    branchID,
		MissCycle: cycle,
		History:   hist,
	})
}

// Finish returns the collected profile.
func (c *Collector) Finish(instructions int64) *Profile {
	c.prof.Instructions = instructions
	return c.prof
}

// Collect is the one-call convenience used throughout the experiments:
// run the pipeline with the collector as its sink and return the
// profile alongside the run result.
func Collect(p *program.Program, in exec.Input, cfg pipeline.Config, sampleRate int) (*Profile, *pipeline.Result, error) {
	c := NewCollector(p, sampleRate)
	cfg.Sink = c
	res, err := pipeline.Run(p, in, cfg)
	if err != nil {
		return nil, nil, err
	}
	return c.Finish(res.Original), res, nil
}
