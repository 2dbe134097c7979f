package pipeline

import (
	"testing"

	"twig/internal/btb"
	"twig/internal/exec"
	"twig/internal/prefetcher"
)

func TestWarmupReducesColdEffects(t *testing.T) {
	p := simpleProgram(t)
	run := func(warm int64) *Result {
		cfg := testConfig(30_000)
		cfg.Warmup = warm
		cfg.Scheme = prefetcher.NewBaseline(btb.Config{Entries: 4, Ways: 2}, 0, false)
		res, err := Run(p, exec.Input{Seed: 21}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := run(0)
	warm := run(30_000)
	if warm.Original != 30_000 || cold.Original != 30_000 {
		t.Fatalf("measured window wrong: %d / %d", cold.Original, warm.Original)
	}
	if warm.Cycles <= 0 || warm.Cycles >= cold.Cycles*1.5 {
		t.Fatalf("warm cycles %f implausible vs cold %f", warm.Cycles, cold.Cycles)
	}
	// Cold-start I-cache misses must not appear in the warmed window.
	if warm.ICacheMisses > cold.ICacheMisses {
		t.Fatalf("warm window has more I-cache misses (%d) than cold (%d)", warm.ICacheMisses, cold.ICacheMisses)
	}
	if warm.BTB.TotalAccesses() <= 0 {
		t.Fatal("warm window lost BTB accounting")
	}
}

func TestWarmupHooksSilent(t *testing.T) {
	p := simpleProgram(t)
	cfg := testConfig(10_000)
	cfg.Warmup = 10_000
	cfg.Scheme = prefetcher.NewBaseline(btb.Config{Entries: 4, Ways: 2}, 0, false)
	c := &countingSink{t: t, resteers: map[string]int64{}}
	cfg.Sink = c
	if _, err := Run(p, exec.Input{Seed: 22}, cfg); err != nil {
		t.Fatal(err)
	}
	// The sink observes only the measured 10K window: strictly fewer
	// block entries than instructions simulated overall.
	if c.blocks <= 0 || c.blocks > 10_000 {
		t.Fatalf("sink saw %d block entries for a 10K measured window", c.blocks)
	}
}
