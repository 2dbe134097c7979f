// Command twigopt runs Twig's offline pipeline for one application —
// build, profile, analyze, relink — and reports what the analysis
// produced: injection sites, coalesce-table size, offset encodability,
// and static overhead. It is the reproduction's equivalent of running
// the paper's profile-guided optimizer on a production binary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"twig"
)

func main() {
	var (
		app          = flag.String("app", "cassandra", "application (see twigsim -list)")
		train        = flag.Int("train", 0, "training input number")
		instructions = flag.Int64("instructions", 1_000_000, "evaluation window (profiling uses 2x)")
		distance     = flag.Float64("distance", 0, "prefetch distance in cycles (0 = paper default 20)")
		maskBits     = flag.Int("mask", 0, "coalesce bitmask width (0 = paper default 8)")
		noCoalesce   = flag.Bool("no-coalesce", false, "software BTB prefetching only (drop coalescing)")
		traceFile    = flag.String("trace", "", "write the measurement runs' event trace (JSON Lines) to this file")
		metricsFile  = flag.String("metrics", "", `write the Prometheus exposition after measurement to this file ("-" = stdout)`)
	)
	flag.Parse()

	cfg := twig.DefaultConfig()
	cfg.Instructions = *instructions
	cfg.PrefetchDistance = *distance
	cfg.CoalesceMaskBits = *maskBits
	cfg.DisableCoalescing = *noCoalesce
	if *metricsFile != "" {
		cfg.CollectMetrics = true
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "twigopt:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.TraceWriter = f
	}

	sys, err := twig.NewSystemTrained(twig.App(*app), *train, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twigopt:", err)
		os.Exit(1)
	}
	an := sys.Analysis()
	fmt.Printf("app                    %s (trained on input #%d)\n", *app, *train)
	fmt.Printf("injection placements   %d\n", an.Sites)
	fmt.Printf("coalesce table entries %d\n", an.CoalesceTableEntries)
	fmt.Printf("injected instructions  %d\n", an.InjectedInstructions)
	fmt.Printf("injected bytes         %d\n", an.InjectedBytes)
	fmt.Printf("text bytes             %d\n", an.TextBytes)
	fmt.Printf("static overhead        %.2f%%\n", an.StaticOverhead*100)
	fmt.Printf("estimated coverage     %.1f%% of sampled miss volume\n", an.EstimatedCoverage*100)

	base, err := sys.Run("baseline", *train)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twigopt:", err)
		os.Exit(1)
	}
	opt, err := sys.Run("twig", *train)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twigopt:", err)
		os.Exit(1)
	}
	fmt.Printf("measured coverage      %.1f%%\n", twig.Coverage(base, opt))
	fmt.Printf("measured speedup       %+.2f%%\n", twig.Speedup(base, opt))
	fmt.Printf("prefetch accuracy      %.1f%%\n", opt.PrefetchAccuracy*100)
	fmt.Printf("dynamic overhead       %.2f%%\n", opt.DynamicOverhead*100)

	if *metricsFile != "" {
		var w io.Writer = os.Stdout
		if *metricsFile != "-" {
			f, err := os.Create(*metricsFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "twigopt:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := sys.WriteMetrics(w); err != nil {
			fmt.Fprintln(os.Stderr, "twigopt:", err)
			os.Exit(1)
		}
	}
}
