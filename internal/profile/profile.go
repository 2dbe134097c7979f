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
// A profile stores each taken-branch record once. Profile.Log is one
// append-only list of records in taken order, and a sample names its
// LBR window as the last Len records before End. At each snapshot the
// collector appends only the records taken since its previous
// snapshot (at most LBRDepth), so the log's last ring-length records
// always equal the ring, and consecutive samples share the records
// their windows overlap in. Callers read a window with Profile.Window;
// only this package knows the layout.
//
// Samples reference stable block IDs and stable branch IDs, so the
// offline analysis (package twigopt) keeps working after the binary is
// relinked with injected prefetches.
package profile

import (
	"fmt"

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

// Sample is one BTB-miss profile sample: the missed branch and where
// the LBR contents at the miss lie in the profile's log.
type Sample struct {
	// Branch is the stable ID of the missed branch instruction.
	Branch int32
	// MissCycle is when the miss resteer was discovered.
	MissCycle float64
	// End and Len place the sample's LBR window in Profile.Log: it is
	// the Len records before index End. Len is below LBRDepth only near
	// the start of execution. Read the window through Profile.Window.
	End, Len int32
}

// Profile is the aggregate output of a profiling run.
type Profile struct {
	// Log holds the taken-branch records of every sample's window, in
	// taken order, each stored once.
	Log []Record
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
	// fresh counts the records taken since the last snapshot, at most
	// LBRDepth: the ring entries the log does not hold yet.
	fresh int

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
	if c.fresh < LBRDepth {
		c.fresh++
	}
}

// BTBMiss implements telemetry.Sink: it counts the miss and, every
// sample-rate-th miss, snapshots the LBR ring into a Sample. The
// snapshot appends to the log only the ring entries taken since the
// previous one, oldest first; the older part of the window is already
// the log's tail.
func (c *Collector) BTBMiss(_ int64, cycle float64, branchIdx int32, _ uint64, _ string) {
	branchID := c.p.Instrs[branchIdx].ID
	c.prof.MissCounts[branchID]++
	c.missSeen++
	if c.missSeen%int64(c.rate) != 0 {
		return
	}
	log := c.prof.Log
	for i := c.fresh; i > 0; i-- {
		log = append(log, c.ring[(c.ringPos-i+LBRDepth)%LBRDepth])
	}
	c.prof.Log = log
	c.fresh = 0
	c.prof.Samples = append(c.prof.Samples, Sample{
		Branch:    branchID,
		MissCycle: cycle,
		End:       int32(len(log)),
		Len:       int32(c.ringLen),
	})
}

// Window returns sample i's LBR records, oldest first (taken order;
// the hardware ring reads most recent first). The slice aliases the
// log, which overlapping windows share, so a write through it changes
// every window that holds the record.
func (p *Profile) Window(i int) []Record {
	s := &p.Samples[i]
	return p.Log[s.End-s.Len : s.End]
}

// AddSample appends a sample whose LBR window is window, oldest record
// first, copying the records to the end of the log. It builds profiles
// by hand (worked examples, tests); the Collector shares the records
// of overlapping windows instead. A window longer than LBRDepth
// panics.
func (p *Profile) AddSample(branch int32, missCycle float64, window []Record) {
	if len(window) > LBRDepth {
		panic(fmt.Sprintf("profile: window of %d records exceeds LBR depth", len(window)))
	}
	p.Log = append(p.Log, window...)
	p.Samples = append(p.Samples, Sample{
		Branch:    branch,
		MissCycle: missCycle,
		End:       int32(len(p.Log)),
		Len:       int32(len(window)),
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
