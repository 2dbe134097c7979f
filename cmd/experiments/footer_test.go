package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twig/internal/runner"
	"twig/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// fakeLedger builds a ledger on a deterministic clock: jobs of known
// durations plus a spread of queue waits, so the footer's numbers are
// reproducible byte for byte.
func fakeLedger() *telemetry.Ledger {
	var now time.Duration
	clock := func() time.Duration { return now }
	led := telemetry.NewLedgerWithClock(clock)

	jobs := []struct {
		name string
		dur  time.Duration
	}{
		{"job:run/base/verilator/0", 1200 * time.Millisecond},
		{"job:run/twig/verilator/0", 900 * time.Millisecond},
		{"job:profile/verilator/0", 4500 * time.Millisecond},
		{"job:build/verilator", 300 * time.Millisecond},
		{"job:run/ideal/verilator/0", 700 * time.Millisecond},
		{"job:derived/3c/verilator", 150 * time.Millisecond},
	}
	for _, j := range jobs {
		sp := led.Begin(j.name, "job")
		w := sp.Child("queue.wait", "sched")
		now += j.dur / 10
		w.End()
		now += j.dur
		sp.End()
	}
	return led
}

func TestLedgerFooterGolden(t *testing.T) {
	stats := runner.Stats{
		SimRuns: 4, SimHits: 6,
		ProfileRuns: 1, ProfileHits: 1,
		DerivedRuns: 1, DerivedHits: 0,
		OtherRuns: 1, OtherHits: 2,
	}
	got := ledgerFooter(fakeLedger(), stats)

	golden := filepath.Join("testdata", "ledger_footer.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("footer drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestLedgerFooterExcludesDependencyWait pins that a job is ranked and
// printed by its own time: the run that waited 170 ms for its
// artifacts build and then worked 14 ms shows 14 ms, below the build.
func TestLedgerFooterExcludesDependencyWait(t *testing.T) {
	var now time.Duration
	led := telemetry.NewLedgerWithClock(func() time.Duration { return now })
	run := led.Begin("job:run/base/verilator/0", "job")
	wait := run.Child(telemetry.DepsWaitSpan, "sched")
	art := led.Begin("job:art/verilator/0", "job")
	now += 170 * time.Millisecond
	art.End()
	wait.End()
	now += 14 * time.Millisecond
	run.End()

	got := ledgerFooter(led, runner.Stats{})
	want := "slowest jobs:\n" +
		"  1. job:art/verilator/0                                       170ms\n" +
		"  2. job:run/base/verilator/0                                   14ms\n"
	if !strings.Contains(got, want) {
		t.Fatalf("footer does not rank by self time:\n%s", got)
	}
}
