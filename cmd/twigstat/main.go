// Command twigstat renders the per-epoch telemetry of one application
// under one frontend scheme: IPC, BTB MPKI, resteer rate, I-cache MPKI,
// and BTB-miss coverage against the FDIP baseline, epoch by epoch.
//
// Usage:
//
//	twigstat -app cassandra -scheme twig -epoch 100000
//	twigstat -app kafka -scheme shotgun -format jsonl
//	twigstat -app drupal -scheme twig -trace events.jsonl -metrics -
//
// The tool always simulates the baseline alongside the requested scheme
// (with the same epoch length) so per-epoch coverage is the signed
// share of the baseline's BTB misses the scheme eliminated in that
// epoch — negative when the scheme missed more. Output is
// deterministic: the same flags always produce byte-identical text.
// -scheme takes any name in the scheme table (twig.SchemeNames).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"twig"
	"twig/internal/metrics"
)

func main() {
	var (
		app          = flag.String("app", "cassandra", "application (twigsim -list shows all)")
		scheme       = flag.String("scheme", "twig", strings.Join(twig.SchemeNames(), "|"))
		input        = flag.Int("input", 0, "input configuration number (0-3)")
		train        = flag.Int("train", 0, "Twig training input number")
		instructions = flag.Int64("instructions", 1_000_000, "simulation window")
		epoch        = flag.Int64("epoch", 100_000, "epoch length in committed instructions")
		format       = flag.String("format", "table", "table|jsonl")
		traceFile    = flag.String("trace", "", "write the structured event trace (JSON Lines) to this file")
		metricsFile  = flag.String("metrics", "", `write the final Prometheus exposition to this file ("-" = stdout)`)
		listen       = flag.String("listen", "", `serve the live stats endpoint on this address (e.g. ":8080") and keep serving after the run`)
	)
	flag.Parse()

	if !slices.Contains(twig.SchemeNames(), *scheme) {
		fail(fmt.Errorf("unknown scheme %q (known: %v)", *scheme, twig.SchemeNames()))
	}
	if *epoch <= 0 {
		fail(fmt.Errorf("-epoch must be positive"))
	}

	cfg := twig.DefaultConfig()
	cfg.Instructions = *instructions
	cfg.Epoch = *epoch
	cfg.LiveAddr = *listen
	if *metricsFile != "" {
		cfg.CollectMetrics = true
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		cfg.TraceWriter = f
	}

	sys, err := twig.NewSystemTrained(twig.App(*app), *train, cfg)
	if err != nil {
		fail(err)
	}
	defer sys.Close()

	base, err := sys.Run("baseline", *input)
	if err != nil {
		fail(err)
	}
	res := base
	if *scheme != "baseline" {
		if res, err = sys.Run(*scheme, *input); err != nil {
			fail(err)
		}
	}

	switch *format {
	case "table":
		printTable(os.Stdout, *app, *scheme, *input, *epoch, base, res)
	case "jsonl":
		printJSONL(os.Stdout, base, res)
	default:
		fail(fmt.Errorf("unknown format %q (want table or jsonl)", *format))
	}

	if *metricsFile != "" {
		var w io.Writer = os.Stdout
		if *metricsFile != "-" {
			f, err := os.Create(*metricsFile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := sys.WriteMetrics(w); err != nil {
			fail(err)
		}
	}

	if *listen != "" {
		fmt.Fprintf(os.Stderr, "twigstat: serving live stats on http://%s (interrupt to exit)\n", sys.LiveAddr())
		select {}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "twigstat:", err)
	os.Exit(1)
}

// epochs pairs the scheme's epochs with the baseline's so coverage can
// be computed per epoch; the runs simulate the same window, but guard
// against length skew anyway.
func epochs(base, res twig.Result) int {
	n := len(res.Epochs)
	if len(base.Epochs) < n {
		n = len(base.Epochs)
	}
	return n
}

func printTable(w io.Writer, app, scheme string, input int, epoch int64, base, res twig.Result) {
	fmt.Fprintf(w, "# %s under %s, input #%d, epochs of %d instructions\n",
		app, scheme, input, epoch)
	tb := metrics.NewTable("epoch", "instr", "cycles", "IPC", "BTB-MPKI", "rst/KI", "L1i-MPKI", "cov%")
	row := func(label string, e twig.EpochStats, cov float64) {
		tb.Row(label,
			e.Instructions,
			fmt.Sprintf("%.0f", e.Cycles),
			fmt.Sprintf("%.3f", e.IPC),
			e.BTBMPKI,
			rate(e.Resteers, e.Instructions),
			rate(e.ICacheMisses, e.Instructions),
			fmt.Sprintf("%+.1f", cov))
	}
	for i := 0; i < epochs(base, res); i++ {
		e := res.Epochs[i]
		cov := metrics.CoverageSigned(base.Epochs[i].BTBMisses, e.BTBMisses)
		row(fmt.Sprintf("%d", e.Epoch), e, cov)
	}
	row("total", twig.EpochStats{
		Instructions: res.Instructions,
		Cycles:       res.Cycles,
		IPC:          res.IPC,
		BTBMPKI:      res.BTBMPKI,
		Resteers:     sumResteers(res),
		ICacheMisses: sumICache(res),
	}, twig.CoverageSigned(base, res))
	fmt.Fprint(w, tb.String())
}

func printJSONL(w io.Writer, base, res twig.Result) {
	for i := 0; i < epochs(base, res); i++ {
		e := res.Epochs[i]
		cov := metrics.CoverageSigned(base.Epochs[i].BTBMisses, e.BTBMisses)
		fmt.Fprintf(w,
			`{"epoch":%d,"instructions":%d,"cycles":%.0f,"ipc":%.3f,"btb_mpki":%.2f,"resteer_pki":%.2f,"icache_mpki":%.2f,"coverage_pct":%.1f}`+"\n",
			e.Epoch, e.Instructions, e.Cycles, e.IPC, e.BTBMPKI,
			rate(e.Resteers, e.Instructions), rate(e.ICacheMisses, e.Instructions), cov)
	}
}

// rate returns events per kilo-instruction.
func rate(n, instructions int64) float64 {
	if instructions <= 0 {
		return 0
	}
	return float64(n) / float64(instructions) * 1000
}

func sumResteers(r twig.Result) int64 {
	var s int64
	for _, e := range r.Epochs {
		s += e.Resteers
	}
	return s
}

func sumICache(r twig.Result) int64 {
	var s int64
	for _, e := range r.Epochs {
		s += e.ICacheMisses
	}
	return s
}
