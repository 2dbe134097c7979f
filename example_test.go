package twig_test

import (
	"fmt"
	"log"

	"twig"
)

// The full pipeline in a dozen lines: build an application model,
// profile it, inject brprefetch/brcoalesce, and compare against the
// FDIP baseline. Outputs are coarse booleans so the example is stable
// across recalibrations (exact numbers: EXPERIMENTS.md).
func Example() {
	cfg := twig.DefaultConfig()
	cfg.Instructions = 200_000

	sys, err := twig.NewSystem(twig.Verilator, cfg)
	if err != nil {
		log.Fatal(err)
	}
	base, _ := sys.Run("baseline", 0)
	opt, _ := sys.Run("twig", 0)
	ideal, _ := sys.Run("ideal", 0)

	fmt.Println("twig speeds up the baseline:", twig.Speedup(base, opt) > 0)
	fmt.Println("ideal BTB bounds twig:", ideal.IPC >= opt.IPC)
	fmt.Println("misses covered:", twig.Coverage(base, opt) > 25)
	// Output:
	// twig speeds up the baseline: true
	// ideal BTB bounds twig: true
	// misses covered: true
}

// Comparing Twig against the hardware prefetchers the paper evaluates:
// every scheme runs through Run by its name (see SchemeNames).
func ExampleSystem_Run() {
	cfg := twig.DefaultConfig()
	cfg.Instructions = 200_000

	sys, err := twig.NewSystem(twig.Cassandra, cfg)
	if err != nil {
		log.Fatal(err)
	}
	base, _ := sys.Run("baseline", 0)
	opt, _ := sys.Run("twig", 0)
	shot, _ := sys.Run("shotgun", 0)

	fmt.Println("twig covers more misses than shotgun:",
		twig.Coverage(base, opt) > twig.Coverage(base, shot))
	// Output:
	// twig covers more misses than shotgun: true
}

// The paper's §2 characterization for one application.
func ExampleSystem_Characterize() {
	cfg := twig.DefaultConfig()
	cfg.Instructions = 200_000

	sys, err := twig.NewSystem(twig.Verilator, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ch, err := sys.Characterize(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("BTB misses occur:", ch.BTBMPKI > 1)
	fmt.Println("stream classes partition the misses:",
		ch.RecurringFrac+ch.NewFrac+ch.NonRepetitiveFrac > 0.999)
	// Output:
	// BTB misses occur: true
	// stream classes partition the misses: true
}
