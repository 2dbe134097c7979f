package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"twig/internal/runner"
	"twig/internal/workload"
)

// subsetIDs is a small experiment slice that exercises simulations,
// profiles and derived statistics without running the whole registry.
var subsetIDs = []string{"fig1", "fig11", "fig16"}

// newTestContext returns a context at smoke scale over one application,
// wired to a runner with the given worker count and cache.
func newTestContext(out *bytes.Buffer, workers int, cache *runner.Cache) *Context {
	ctx := NewContext(out, 50_000)
	ctx.Apps = []workload.App{workload.Verilator}
	ctx.SetRunner(runner.New(runner.Options{Workers: workers, Cache: cache}))
	return ctx
}

// TestConcurrentExperimentsShareContext runs two experiments at once on
// one shared Context — the -race configuration in CI makes this a data
// race detector for the memoization path (the historical memo maps were
// plain maps guarded by nothing).
func TestConcurrentExperimentsShareContext(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows")
	}
	var sink1, sink2 bytes.Buffer
	base := newTestContext(&bytes.Buffer{}, 4, nil)
	e1, ok1 := ByID("fig1")
	e2, ok2 := ByID("fig16")
	if !ok1 || !ok2 {
		t.Fatal("registry missing fig1/fig16")
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = base.clone(&sink1).RunOne(e1) }()
	go func() { defer wg.Done(); errs[1] = base.clone(&sink2).RunOne(e2) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("experiment %d: %v", i, err)
		}
	}
	if sink1.Len() == 0 || sink2.Len() == 0 {
		t.Fatal("an experiment produced no output")
	}
}

// TestParallelOutputMatchesSerial is the aggregate-table half of the
// determinism oracle: RunSelected with eight workers must render byte-
// identical output to a serial run.
func TestParallelOutputMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows")
	}
	var serial, parallel bytes.Buffer
	if err := newTestContext(&serial, 1, nil).RunSelected(subsetIDs, 1); err != nil {
		t.Fatal(err)
	}
	if err := newTestContext(&parallel, 8, nil).RunSelected(subsetIDs, 8); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

// TestWarmCacheRunsZeroSimulations asserts the headline cache property:
// a rerun against a warm persistent cache replays every simulation —
// including the training profile — from disk, executes nothing, and
// still renders identical output.
func TestWarmCacheRunsZeroSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows")
	}
	dir := t.TempDir()
	cold, err := runner.OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	ctx := newTestContext(&first, 4, cold)
	if err := ctx.RunSelected(subsetIDs, 4); err != nil {
		t.Fatal(err)
	}
	cs := ctx.Runner().Stats()
	if cs.SimRuns == 0 || cs.ProfileRuns == 0 {
		t.Fatalf("cold run executed nothing (stats %+v) — the oracle below would be vacuous", cs)
	}

	warm, err := runner.OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	ctx2 := newTestContext(&second, 4, warm)
	if err := ctx2.RunSelected(subsetIDs, 4); err != nil {
		t.Fatal(err)
	}
	ws := ctx2.Runner().Stats()
	if ws.SimRuns != 0 || ws.ProfileRuns != 0 || ws.DerivedRuns != 0 {
		t.Fatalf("warm run executed sims=%d profiles=%d derived=%d, want all zero\n%s",
			ws.SimRuns, ws.ProfileRuns, ws.DerivedRuns, ws.Summary())
	}
	// Every job of this subset runs on artifacts it declares as a
	// dependency, so cache hits prune them: the warm run neither loads
	// a profile nor rebuilds a binary or an analysis.
	if ws.ProfileHits != 0 || ws.OtherRuns != 0 {
		t.Fatalf("warm run loaded %d profiles and ran %d builds or analyses, want 0 and 0\n%s",
			ws.ProfileHits, ws.OtherRuns, ws.Summary())
	}
	if ws.DiskHits == 0 {
		t.Fatalf("warm run hit the disk tier 0 times: %s", ws.Summary())
	}
	if first.String() != second.String() {
		t.Fatalf("warm-cache output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s",
			first.String(), second.String())
	}
}

// TestAblationsTrainThroughRunner pins that the ablations which retrain
// under another replacement policy or sampling rate do so as runner
// jobs: a cold run counts every training run, and a warm rerun over the
// same disk cache trains nothing and renders the same text.
func TestAblationsTrainThroughRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("trains six profiles")
	}
	ids := []string{"ablation-replacement", "ablation-sampling"}
	dir := t.TempDir()
	render := func() (string, runner.Stats) {
		cache, err := runner.OpenCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		ctx := newTestContext(&out, 2, cache)
		if err := ctx.RunSelected(ids, 2); err != nil {
			t.Fatal(err)
		}
		return out.String(), ctx.Runner().Stats()
	}
	cold, cs := render()
	// The default operating point (LRU, every miss sampled), FIFO,
	// random, and sampling every 4th, 16th and 64th miss.
	if cs.ProfileRuns != 6 {
		t.Errorf("cold run counted %d training runs, want 6\n%s", cs.ProfileRuns, cs.Summary())
	}
	warm, ws := render()
	if ws.ProfileRuns != 0 || ws.SimRuns != 0 {
		t.Errorf("warm run trained %d profiles and ran %d sims, want 0 and 0\n%s", ws.ProfileRuns, ws.SimRuns, ws.Summary())
	}
	if warm != cold {
		t.Errorf("warm output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}

// TestRunSelectedUnknownID preserves the CLI's error contract.
func TestRunSelectedUnknownID(t *testing.T) {
	var buf bytes.Buffer
	err := NewContext(&buf, 1000).RunSelected([]string{"fig999"}, 1)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("got %v", err)
	}
}

// TestRunSelectedCancellation verifies a cancelled context aborts the
// run with the context's error rather than hanging.
func TestRunSelectedCancellation(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	ctx := newTestContext(&buf, 2, nil)
	ctx.SetContext(cctx)
	err := ctx.RunSelected([]string{"fig1"}, 2)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("got %v, want context cancellation", err)
	}
}
