package profile

import (
	"testing"

	"twig/internal/btb"
	"twig/internal/exec"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
	"twig/internal/program"
)

// loopProgram: a dispatcher loop into one handler with several blocks,
// so taken branches and BTB misses occur continuously with a tiny BTB.
func loopProgram(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder(0x400000)
	main := b.NewFunc()
	h := b.NewFunc()
	b0 := h.NewBlock()
	b0.Regular(4)
	b0.Cond(1, 128, false)
	b1 := h.NewBlock()
	b1.Regular(4)
	b1.Call(2)
	b2 := h.NewBlock()
	b2.Return()
	leaf := b.NewFunc()
	lb := leaf.NewBlock()
	lb.Regular(4)
	lb.Return()
	set := b.AddIndirectSet([]int32{h.Index}, nil)
	m0 := main.NewBlock()
	m0.Regular(4)
	m0.IndirectCall(set, true)
	m1 := main.NewBlock()
	m1.Jump(0)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func collect(t testing.TB, p *program.Program, rate int, n int64) (*Profile, *pipeline.Result) {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.MaxInstructions = n
	cfg.BackendCPI = 0.4
	cfg.CondMispredictRate = 0
	cfg.Scheme = prefetcher.NewBaseline(btb.Config{Entries: 4, Ways: 2}, 0, false)
	prof, res, err := Collect(p, exec.Input{Seed: 11}, cfg, rate)
	if err != nil {
		t.Fatal(err)
	}
	return prof, res
}

func TestCollectorSamplesMisses(t *testing.T) {
	p := loopProgram(t)
	prof, res := collect(t, p, 1, 30_000)
	if len(prof.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	if int64(len(prof.Samples)) != res.BTB.DirectMisses() {
		t.Fatalf("samples %d != direct misses %d at rate 1",
			len(prof.Samples), res.BTB.DirectMisses())
	}
	var missTotal int64
	for _, n := range prof.MissCounts {
		missTotal += n
	}
	if missTotal != res.BTB.DirectMisses() {
		t.Fatal("MissCounts do not sum to direct misses")
	}
	if prof.Instructions != res.Original {
		t.Fatal("profile window length wrong")
	}
}

func TestSamplingRate(t *testing.T) {
	p := loopProgram(t)
	full, _ := collect(t, p, 1, 30_000)
	quarter, _ := collect(t, p, 4, 30_000)
	lo := len(full.Samples)/4 - 2
	hi := len(full.Samples)/4 + 2
	if got := len(quarter.Samples); got < lo || got > hi {
		t.Fatalf("rate-4 sampling: %d samples, want ~%d", got, len(full.Samples)/4)
	}
	// Miss counts are exact regardless of sampling.
	var a, b int64
	for _, n := range full.MissCounts {
		a += n
	}
	for _, n := range quarter.MissCounts {
		b += n
	}
	if a != b {
		t.Fatal("sampling changed exact miss counts")
	}
}

func TestSampleHistoryShape(t *testing.T) {
	p := loopProgram(t)
	prof, _ := collect(t, p, 1, 30_000)
	for i, s := range prof.Samples {
		win := prof.Window(i)
		if len(win) > LBRDepth {
			t.Fatalf("history longer than LBR depth: %d", len(win))
		}
		// Taken order, so newest to oldest the cycles must be
		// non-increasing and at or before the miss.
		prev := s.MissCycle
		for j := len(win) - 1; j >= 0; j-- {
			rec := win[j]
			if rec.Cycle > prev {
				t.Fatal("window not in taken order")
			}
			prev = rec.Cycle
			if rec.FromBlock < 0 || int(rec.FromBlock) >= len(p.Blocks) {
				t.Fatal("history references invalid block")
			}
		}
	}
}

func TestBlockExecCounts(t *testing.T) {
	p := loopProgram(t)
	prof, _ := collect(t, p, 1, 30_000)
	var total int64
	for _, c := range prof.BlockExecs {
		total += c
	}
	if total == 0 {
		t.Fatal("no block executions recorded")
	}
	// The dispatcher's block 0 executes once per request and must be
	// among the most-executed blocks.
	if prof.BlockExecs[0] == 0 {
		t.Fatal("dispatcher block never recorded")
	}
}
