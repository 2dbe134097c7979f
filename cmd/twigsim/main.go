// Command twigsim simulates one application under one frontend scheme
// and prints the key metrics.
//
// Usage:
//
//	twigsim -app cassandra -scheme twig -input 0 -instructions 1000000
//
// -scheme takes any name in the scheme table (twig.SchemeNames; -h
// lists them).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"twig"
	"twig/internal/workload"
)

func main() {
	var (
		app          = flag.String("app", "cassandra", "application (see -list)")
		scheme       = flag.String("scheme", "baseline", strings.Join(twig.SchemeNames(), "|"))
		input        = flag.Int("input", 0, "input configuration number (0-3)")
		train        = flag.Int("train", 0, "Twig training input number")
		instructions = flag.Int64("instructions", 1_000_000, "simulation window")
		btbEntries   = flag.Int("btb", 0, "BTB entries (0 = paper default 8192)")
		list         = flag.Bool("list", false, "list applications and exit")
		describe     = flag.Bool("describe", false, "print the app's workload statistics and exit")
		epoch        = flag.Int64("epoch", 0, "sample metrics every N instructions and print per-epoch IPC (0 = off)")
		traceFile    = flag.String("trace", "", "write the structured event trace (JSON Lines) to this file")
		metricsFile  = flag.String("metrics", "", `write the Prometheus exposition to this file ("-" = stdout)`)
		listen       = flag.String("listen", "", `serve the live stats endpoint on this address (e.g. ":8080") and keep serving after the run`)
	)
	flag.Parse()

	if *list {
		for _, a := range twig.Apps() {
			fmt.Println(a)
		}
		return
	}

	if *describe {
		params, err := workload.ParamsFor(workload.App(*app))
		if err != nil {
			fmt.Fprintln(os.Stderr, "twigsim:", err)
			os.Exit(1)
		}
		p, err := workload.Build(params)
		if err != nil {
			fmt.Fprintln(os.Stderr, "twigsim:", err)
			os.Exit(1)
		}
		stats, err := workload.DynamicStats(p, params.Input(*input), *instructions)
		if err != nil {
			fmt.Fprintln(os.Stderr, "twigsim:", err)
			os.Exit(1)
		}
		fmt.Printf("%s (input #%d)\n%s", *app, *input, stats)
		return
	}

	if !slices.Contains(twig.SchemeNames(), *scheme) {
		fmt.Fprintf(os.Stderr, "twigsim: unknown scheme %q (known: %v)\n", *scheme, twig.SchemeNames())
		os.Exit(2)
	}

	cfg := twig.DefaultConfig()
	cfg.Instructions = *instructions
	cfg.BTBEntries = *btbEntries
	cfg.Epoch = *epoch
	cfg.LiveAddr = *listen
	if *metricsFile != "" {
		cfg.CollectMetrics = true
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "twigsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.TraceWriter = f
	}

	sys, err := twig.NewSystemTrained(twig.App(*app), *train, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twigsim:", err)
		os.Exit(1)
	}
	defer sys.Close()

	res, err := sys.Run(*scheme, *input)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twigsim:", err)
		os.Exit(1)
	}

	fmt.Printf("app                %s\n", *app)
	fmt.Printf("scheme             %s\n", *scheme)
	fmt.Printf("input              #%d\n", *input)
	fmt.Printf("instructions       %d\n", res.Instructions)
	fmt.Printf("cycles             %.0f\n", res.Cycles)
	fmt.Printf("IPC                %.3f\n", res.IPC)
	fmt.Printf("BTB MPKI           %.2f\n", res.BTBMPKI)
	fmt.Printf("frontend-bound     %.1f%%\n", res.FrontendBoundFrac*100)
	fmt.Printf("I-cache MPKI       %.2f\n", res.ICacheMPKI)
	if res.PrefetchIssued > 0 {
		fmt.Printf("prefetch issued    %d\n", res.PrefetchIssued)
		fmt.Printf("prefetch used      %d\n", res.PrefetchUsed)
		fmt.Printf("prefetch accuracy  %.1f%%\n", res.PrefetchAccuracy*100)
	}
	if res.DynamicOverhead > 0 {
		fmt.Printf("dynamic overhead   %.2f%%\n", res.DynamicOverhead*100)
	}

	// Snapshot the exposition now: the speedup comparison below runs the
	// baseline, which would rebind the registry's gauges to that run.
	var promSnap bytes.Buffer
	if *metricsFile != "" {
		if err := sys.WriteMetrics(&promSnap); err != nil {
			fmt.Fprintln(os.Stderr, "twigsim:", err)
			os.Exit(1)
		}
	}

	if *scheme != "baseline" {
		base, err := sys.Run("baseline", *input)
		if err == nil {
			fmt.Printf("speedup vs FDIP    %+.2f%%\n", twig.Speedup(base, res))
			fmt.Printf("miss coverage      %.1f%%\n", twig.Coverage(base, res))
		}
	}

	if len(res.Epochs) > 0 {
		fmt.Println()
		for _, e := range res.Epochs {
			fmt.Printf("epoch %-3d  IPC %.3f  BTB MPKI %6.2f\n", e.Epoch, e.IPC, e.BTBMPKI)
		}
	}

	if *metricsFile != "" {
		var w io.Writer = os.Stdout
		if *metricsFile != "-" {
			f, err := os.Create(*metricsFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "twigsim:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if _, err := w.Write(promSnap.Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, "twigsim:", err)
			os.Exit(1)
		}
	}

	if *listen != "" {
		fmt.Fprintf(os.Stderr, "twigsim: serving live stats on http://%s (interrupt to exit)\n", sys.LiveAddr())
		select {}
	}
}
