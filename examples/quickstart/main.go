// Quickstart: the smallest end-to-end use of the twig library.
//
// It builds one data-center application model (Cassandra), runs the
// complete Twig pipeline (profile → analyze → inject), and compares the
// optimized binary against the FDIP baseline and the ideal-BTB limit —
// the essence of the paper's Fig. 16 for a single application.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"twig"
)

func main() {
	cfg := twig.DefaultConfig()
	cfg.Instructions = 500_000 // small window for a fast demo

	fmt.Println("building cassandra, profiling, analyzing, injecting...")
	sys, err := twig.NewSystem(twig.Cassandra, cfg)
	if err != nil {
		log.Fatal(err)
	}

	an := sys.Analysis()
	fmt.Printf("analysis: %d injection placements, %d coalesce-table entries, %.1f%% static overhead\n",
		an.Sites, an.CoalesceTableEntries, an.StaticOverhead*100)

	base, err := sys.Run("baseline", 0)
	if err != nil {
		log.Fatal(err)
	}
	ideal, err := sys.Run("ideal", 0)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := sys.Run("twig", 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %8s %10s %12s\n", "configuration", "IPC", "BTB MPKI", "speedup")
	fmt.Printf("%-22s %8.3f %10.2f %12s\n", "FDIP baseline", base.IPC, base.BTBMPKI, "—")
	fmt.Printf("%-22s %8.3f %10.2f %+11.1f%%\n", "Twig", opt.IPC, opt.BTBMPKI, twig.Speedup(base, opt))
	fmt.Printf("%-22s %8.3f %10.2f %+11.1f%%\n", "ideal BTB (limit)", ideal.IPC, ideal.BTBMPKI, twig.Speedup(base, ideal))

	fmt.Printf("\nTwig covered %.1f%% of BTB misses at %.1f%% prefetch accuracy, "+
		"with %.2f%% dynamic instruction overhead.\n",
		twig.Coverage(base, opt), opt.PrefetchAccuracy*100, opt.DynamicOverhead*100)
}
