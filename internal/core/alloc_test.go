package core

import (
	"runtime"
	"testing"

	"twig/internal/workload"
)

// TestSteadyStateAllocationFree is PERFORMANCE.md's contract 1 as a
// test: the per-instruction loop allocates nothing. Every table scheme
// runs solo, and all of them as one grouped RunSchemes call, at a short
// and a long window over the same artifacts. Set-up allocates the same
// at both windows, so the long call may make fewer than one allocation
// more per 10,000 extra instructions. Under the race detector the
// windows shrink and the grouped case, whose broadcast ring the
// detector instruments, is left out.
func TestSteadyStateAllocationFree(t *testing.T) {
	short, long := int64(200_000), int64(800_000)
	if raceEnabled {
		short, long = 50_000, 200_000
	}
	limit := uint64(long-short) / 10_000
	opts := DefaultOptions()
	opts.Pipeline.MaxInstructions = short
	art, err := BuildAndOptimize(workload.Cassandra, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	mallocs := func(window int64, run func(Options) error) uint64 {
		o := opts
		o.Pipeline.MaxInstructions = window
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	check := func(name string, run func(Options) error) {
		s, l := mallocs(short, run), mallocs(long, run)
		t.Logf("%s: %d allocations at %d instructions, %d at %d", name, s, short, l, long)
		if l >= s+limit {
			t.Errorf("%s: the loop allocates: %d more allocations at %d instructions than at %d (limit %d)",
				name, l-s, long, short, limit)
		}
	}
	for _, name := range SchemeNames {
		check(name, func(o Options) error {
			_, err := art.RunScheme(name, 0, o)
			return err
		})
	}
	if !raceEnabled {
		check("grouped", func(o Options) error {
			_, err := art.RunSchemes(SchemeNames, 0, o)
			return err
		})
	}
}
