// Analytics: comparing BTB prefetching schemes on the streaming and
// storage workloads (Kafka and Cassandra), the way an architect would
// evaluate frontend options for an analytics fleet.
//
// The example reproduces the paper's central comparison (Figs. 16, 17
// and 19) for two applications: Twig vs the hardware prefetchers
// Shotgun and Confluence vs simply quadrupling the BTB.
//
//	go run ./examples/analytics
package main

import (
	"fmt"
	"log"

	"twig"
)

func main() {
	cfg := twig.DefaultConfig()
	cfg.Instructions = 400_000

	for _, app := range []twig.App{twig.Kafka, twig.Cassandra} {
		fmt.Printf("== %s ==\n", app)
		sys, err := twig.NewSystem(app, cfg)
		if err != nil {
			log.Fatal(err)
		}
		base, err := sys.Run("baseline", 0)
		if err != nil {
			log.Fatal(err)
		}

		// A 32K-entry BTB is the brute-force alternative: 4x the
		// storage of the baseline.
		bigCfg := cfg
		bigCfg.BTBEntries = 32768
		bigSys, err := twig.NewSystem(app, bigCfg)
		if err != nil {
			log.Fatal(err)
		}
		big, err := bigSys.Run("baseline", 0)
		if err != nil {
			log.Fatal(err)
		}

		rows := []struct {
			name string
			run  func() (twig.Result, error)
		}{
			{"confluence", func() (twig.Result, error) { return sys.Run("confluence", 0) }},
			{"shotgun", func() (twig.Result, error) { return sys.Run("shotgun", 0) }},
			{"32K-entry BTB", func() (twig.Result, error) { return big, nil }},
			{"twig", func() (twig.Result, error) { return sys.Run("twig", 0) }},
			{"ideal BTB", func() (twig.Result, error) { return sys.Run("ideal", 0) }},
		}
		fmt.Printf("baseline: IPC %.3f, BTB MPKI %.2f, frontend-bound %.0f%%\n\n",
			base.IPC, base.BTBMPKI, base.FrontendBoundFrac*100)
		fmt.Printf("%-15s %10s %12s %12s %12s\n", "scheme", "speedup", "coverage", "accuracy", "MPKI")
		for _, row := range rows {
			r, err := row.run()
			if err != nil {
				log.Fatal(err)
			}
			acc := "—"
			if r.PrefetchIssued > 0 {
				acc = fmt.Sprintf("%.1f%%", r.PrefetchAccuracy*100)
			}
			fmt.Printf("%-15s %+9.1f%% %11.1f%% %12s %12.2f\n",
				row.name, twig.Speedup(base, r), twig.Coverage(base, r), acc, r.BTBMPKI)
		}
		fmt.Println()
	}
}
