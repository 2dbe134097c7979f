package profile

import (
	"math"
	"testing"

	"twig/internal/btb"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// ringCopier is the profiler as it was before the log: every sample
// copies the whole ring, most recent first. It is the reference the
// log's windows must reproduce.
type ringCopier struct {
	telemetry.NopSink
	c         *Collector // for block IDs and the sample rate
	ring      [LBRDepth]Record
	pos, n    int
	missSeen  int64
	histories [][]Record
}

func (r *ringCopier) Taken(fromIdx, toIdx int32, cycle float64) {
	p := r.c.p
	r.ring[r.pos] = Record{
		FromBlock: p.Blocks[p.BlockOf[fromIdx]].ID,
		ToBlock:   p.Blocks[p.BlockOf[toIdx]].ID,
		Cycle:     cycle,
	}
	r.pos = (r.pos + 1) % LBRDepth
	r.n = min(r.n+1, LBRDepth)
}

func (r *ringCopier) BTBMiss(_ int64, _ float64, _ int32, _ uint64, _ string) {
	r.missSeen++
	if r.missSeen%int64(r.c.rate) != 0 {
		return
	}
	hist := make([]Record, r.n)
	for i := range hist {
		hist[i] = r.ring[(r.pos-1-i+LBRDepth)%LBRDepth]
	}
	r.histories = append(r.histories, hist)
}

// TestWindowsEqualRingCopies runs the Collector and the copying
// reference on one event stream of a real app and checks every window
// against its copied history, record for record and bit for bit, at
// the dense and a sparse sample rate.
func TestWindowsEqualRingCopies(t *testing.T) {
	params, err := workload.ParamsFor(workload.WordPress)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Build(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range []int{1, 4} {
		c := NewCollector(p, rate)
		ref := &ringCopier{c: c}
		cfg := pipeline.DefaultConfig()
		cfg.MaxInstructions = 200_000
		cfg.BackendCPI = params.BackendCPI
		cfg.CondMispredictRate = params.CondMispredictRate
		cfg.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
		cfg.Sink = telemetry.Tee(c, ref)
		res, err := pipeline.Run(p, params.InputPhase(0, 0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		prof := c.Finish(res.Original)
		if len(prof.Samples) != len(ref.histories) || len(prof.Samples) < 100 {
			t.Fatalf("rate %d: %d samples, reference has %d", rate, len(prof.Samples), len(ref.histories))
		}
		copied := 0
		for i, hist := range ref.histories {
			win := prof.Window(i)
			if len(win) != len(hist) {
				t.Fatalf("rate %d sample %d: window of %d records, ring held %d", rate, i, len(win), len(hist))
			}
			for j, want := range hist {
				got := win[len(win)-1-j]
				if got.FromBlock != want.FromBlock || got.ToBlock != want.ToBlock ||
					math.Float64bits(got.Cycle) != math.Float64bits(want.Cycle) {
					t.Fatalf("rate %d sample %d record %d: %+v, ring held %+v", rate, i, j, got, want)
				}
			}
			copied += len(hist)
		}
		if len(prof.Log) > copied {
			t.Fatalf("rate %d: log holds %d records, the copies %d", rate, len(prof.Log), copied)
		}
		t.Logf("rate %d: %d samples, %d log records for %d copied", rate, len(prof.Samples), len(prof.Log), copied)
	}
}

// TestSnapshotAppendsOnlyNewRecords drives the collector by hand: a
// snapshot appends the records taken since the previous one, and at
// most a ring's worth after a long gap.
func TestSnapshotAppendsOnlyNewRecords(t *testing.T) {
	p := loopProgram(t)
	c := NewCollector(p, 1)
	branch := p.Blocks[0].Last
	for _, tc := range []struct{ taken, wantLog, wantLen int }{
		{0, 0, 0},
		{3, 3, 3},
		{0, 3, 3},
		{40, 35, 32},
		{5, 40, 32},
	} {
		for k := 0; k < tc.taken; k++ {
			c.Taken(p.Blocks[0].Last, p.Blocks[1].First, float64(len(c.prof.Log)+k))
		}
		c.BTBMiss(0, 1e6, branch, 0, "cond")
		prof := c.prof
		last := prof.Samples[len(prof.Samples)-1]
		if len(prof.Log) != tc.wantLog || int(last.Len) != tc.wantLen {
			t.Fatalf("after %d taken: log %d, window %d; want %d, %d",
				tc.taken, len(prof.Log), last.Len, tc.wantLog, tc.wantLen)
		}
	}
}

// TestSnapshotAllocatesNothing pins that a sample costs no allocation
// of its own once the log and sample slices have room: the window is
// the log's tail, not a copy.
func TestSnapshotAllocatesNothing(t *testing.T) {
	p := loopProgram(t)
	c := NewCollector(p, 1)
	c.prof.Log = make([]Record, 0, 1<<12)
	c.prof.Samples = make([]Sample, 0, 1<<8)
	branch := p.Blocks[0].Last
	c.BTBMiss(0, 0, branch, 0, "cond") // the branch's MissCounts entry
	allocs := testing.AllocsPerRun(100, func() {
		c.Taken(p.Blocks[0].Last, p.Blocks[1].First, 1)
		c.Taken(p.Blocks[1].Last, p.Blocks[0].First, 2)
		c.BTBMiss(0, 3, branch, 0, "cond")
	})
	if allocs != 0 {
		t.Fatalf("a sample allocates %.1f times", allocs)
	}
}
