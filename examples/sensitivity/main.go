// Sensitivity: exploring Twig's design parameters on one application —
// prefetch distance (paper Fig. 26), coalesce bitmask width (Fig. 27)
// and prefetch buffer size (Fig. 25) — the workflow for porting Twig to
// a new microarchitecture.
//
//	go run ./examples/sensitivity
package main

import (
	"fmt"
	"log"

	"twig"
)

func main() {
	app := twig.Verilator // the paper's most BTB-bound application
	base := twig.DefaultConfig()
	base.Instructions = 400_000

	ref, err := twig.NewSystem(app, base)
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := ref.Run("baseline", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s baseline: IPC %.3f, BTB MPKI %.1f\n\n", app, baseline.IPC, baseline.BTBMPKI)

	fmt.Println("prefetch distance sweep (paper Fig. 26):")
	for _, d := range []float64{5, 10, 20, 30, 50} {
		cfg := base
		cfg.PrefetchDistance = d
		report(app, cfg, baseline, fmt.Sprintf("distance %2.0f cycles", d))
	}

	fmt.Println("\ncoalesce bitmask width sweep (paper Fig. 27):")
	for _, bits := range []int{1, 4, 8, 32} {
		cfg := base
		cfg.CoalesceMaskBits = bits
		report(app, cfg, baseline, fmt.Sprintf("mask %2d bits", bits))
	}

	fmt.Println("\nprefetch buffer size sweep (paper Fig. 25):")
	for _, entries := range []int{8, 32, 128, 256} {
		cfg := base
		cfg.PrefetchBuffer = entries
		report(app, cfg, baseline, fmt.Sprintf("buffer %3d entries", entries))
	}

	fmt.Println("\nsoftware prefetching only, no coalescing (paper Fig. 18):")
	cfg := base
	cfg.DisableCoalescing = true
	report(app, cfg, baseline, "coalescing off")
}

func report(app twig.App, cfg twig.Config, baseline twig.Result, label string) {
	sys, err := twig.NewSystem(app, cfg)
	if err != nil {
		log.Fatal(err)
	}
	r, err := sys.Run("twig", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-20s speedup %+6.1f%%  coverage %5.1f%%  accuracy %5.1f%%  dyn overhead %4.2f%%\n",
		label, twig.Speedup(baseline, r), twig.Coverage(baseline, r),
		r.PrefetchAccuracy*100, r.DynamicOverhead*100)
}
