// Command twigbench measures end-to-end simulator throughput (simulated
// kilo-instructions per second) across a scheme × application matrix and
// manages the committed baseline file BENCH_pipeline.json.
//
// Three modes, combinable left to right:
//
//	twigbench                          # measure, print table + delta vs baseline file
//	twigbench -update                  # measure and rewrite the baseline file
//	twigbench -check -tolerance 0.10   # measure and exit 1 on >10% kIPS regression
//	twigbench -json                    # one JSON object per app instead of the table
//
// The baseline file is single-app (benchmark/app/instructions/results),
// so -update and -check require exactly one app; the matrix mode
// (-apps with several names, or "all") is for reading the performance
// landscape, not for regression tracking. -schemes takes any names in
// the scheme table (twig.SchemeNames). PERFORMANCE.md documents the
// methodology and when to regenerate the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"twig"
)

// benchResult is one scheme's timing in BENCH_pipeline.json.
type benchResult struct {
	Scheme  string  `json:"scheme"`
	NsPerOp int64   `json:"ns_per_op"`
	SimKIPS float64 `json:"sim_kips"`
}

// groupedResult times one System.RunSchemes call covering every
// requested scheme in a single shared-stream pass. SimKIPS is the
// aggregate rate (schemes × window / wall time); Speedup is the serial
// per-scheme sum divided by the grouped wall time.
type groupedResult struct {
	Schemes []string `json:"schemes"`
	NsPerOp int64    `json:"ns_per_op"`
	SimKIPS float64  `json:"sim_kips"`
	Speedup float64  `json:"speedup_vs_serial"`
}

// benchFile is the persisted BENCH_pipeline.json payload. Grouped is
// optional so files written before the grouped metric existed still
// load (and -check against them still works); readers likewise ignore
// the extra key.
type benchFile struct {
	Benchmark    string         `json:"benchmark"`
	App          string         `json:"app"`
	Instructions int64          `json:"instructions"`
	Results      []benchResult  `json:"results"`
	Grouped      *groupedResult `json:"grouped,omitempty"`
}

func main() {
	var (
		apps         = flag.String("apps", "cassandra", `comma-separated applications, or "all"`)
		schemes      = flag.String("schemes", "baseline,twig,shotgun,hierarchy,shadow", "comma-separated schemes ("+strings.Join(twig.SchemeNames(), "|")+")")
		instructions = flag.Int64("n", 1_000_000, "simulation window per run")
		train        = flag.Int("train", 0, "Twig training input number")
		reps         = flag.Int("reps", 3, "timed repetitions per cell (best is kept, after one warmup)")
		baseline     = flag.String("baseline", "BENCH_pipeline.json", "committed baseline file to compare against")
		update       = flag.Bool("update", false, "rewrite the baseline file with this run's numbers (single app only)")
		check        = flag.Bool("check", false, "exit 1 if any scheme regresses vs the baseline file (single app only)")
		tolerance    = flag.Float64("tolerance", 0.10, "allowed fractional kIPS regression with -check")
		jsonOut      = flag.Bool("json", false, "emit one JSON object per app (BENCH_pipeline.json schema plus per-scheme kIPS deltas vs the baseline file) instead of the table")
	)
	flag.Parse()

	appList, err := resolveApps(*apps)
	if err != nil {
		fatal(err)
	}
	schemeList := strings.Split(*schemes, ",")
	for i, s := range schemeList {
		schemeList[i] = strings.TrimSpace(s)
		if !slices.Contains(twig.SchemeNames(), schemeList[i]) {
			fatal(fmt.Errorf("unknown scheme %q (known: %v)", schemeList[i], twig.SchemeNames()))
		}
	}
	if (*update || *check) && len(appList) != 1 {
		fatal(fmt.Errorf("-update/-check need exactly one app (got %d): the baseline file is single-app", len(appList)))
	}

	old, oldErr := readBaseline(*baseline)

	exitCode := 0
	for _, app := range appList {
		results, grouped, err := benchApp(app, *train, *instructions, *reps, schemeList)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			if err := printJSON(app, *instructions, results, grouped, old); err != nil {
				fatal(err)
			}
		} else {
			printTable(app, *instructions, results, grouped, old)
		}

		if *check {
			if oldErr != nil {
				fatal(fmt.Errorf("-check: cannot read baseline %s: %w", *baseline, oldErr))
			}
			if !checkRegression(app, *instructions, results, old, *tolerance) {
				exitCode = 1
			}
		}
		if *update {
			out := benchFile{Benchmark: "pipeline", App: string(app), Instructions: *instructions, Results: results, Grouped: grouped}
			data, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*baseline, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *baseline)
		}
	}
	os.Exit(exitCode)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "twigbench:", err)
	os.Exit(2)
}

func resolveApps(s string) ([]twig.App, error) {
	if s == "all" {
		return twig.Apps(), nil
	}
	known := map[twig.App]bool{}
	for _, a := range twig.Apps() {
		known[a] = true
	}
	var out []twig.App
	for _, name := range strings.Split(s, ",") {
		a := twig.App(strings.TrimSpace(name))
		if !known[a] {
			return nil, fmt.Errorf("unknown app %q (twigsim -list shows all)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func readBaseline(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// benchApp trains one system and times every requested scheme: one
// warmup run (page in code paths, warm the scheme's tables' sizing),
// then best-of-reps wall time. Best-of, not mean: scheduling noise only
// ever adds time, so the minimum is the cleanest throughput estimate.
// With two or more schemes it also times one grouped
// System.RunSchemes pass over all of them (the shared broadcast
// stream), reporting its wall clock next to the serial per-scheme sum.
func benchApp(app twig.App, train int, instructions int64, reps int, schemes []string) ([]benchResult, *groupedResult, error) {
	cfg := twig.DefaultConfig()
	cfg.Instructions = instructions
	sys, err := twig.NewSystemTrained(app, train, cfg)
	if err != nil {
		return nil, nil, err
	}
	var results []benchResult
	var serialSum int64
	for _, name := range schemes {
		if _, err := sys.Run(name, 0); err != nil { // warmup
			return nil, nil, err
		}
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := sys.Run(name, 0); err != nil {
				return nil, nil, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		serialSum += best.Nanoseconds()
		results = append(results, benchResult{
			Scheme:  name,
			NsPerOp: best.Nanoseconds(),
			SimKIPS: float64(instructions) / best.Seconds() / 1000,
		})
	}
	if len(schemes) < 2 {
		return results, nil, nil
	}
	if _, err := sys.RunSchemes(0, schemes...); err != nil { // warmup
		return nil, nil, err
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := sys.RunSchemes(0, schemes...); err != nil {
			return nil, nil, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	grouped := &groupedResult{
		Schemes: schemes,
		NsPerOp: best.Nanoseconds(),
		SimKIPS: float64(int64(len(schemes))*instructions) / best.Seconds() / 1000,
		Speedup: float64(serialSum) / float64(best.Nanoseconds()),
	}
	return results, grouped, nil
}

// jsonReport is the -json output: the BENCH_pipeline.json schema (so
// consumers of the committed baseline file parse it unchanged) plus a
// per-scheme fractional kIPS delta against the baseline file when it
// covers the same app and window.
type jsonReport struct {
	benchFile
	// DeltaVsBaseline maps scheme → fractional sim-kIPS change vs the
	// baseline file (+0.05 = 5% faster); only schemes present in both
	// runs appear.
	DeltaVsBaseline map[string]float64 `json:"delta_vs_baseline,omitempty"`
}

// printJSON writes one app's results as a single JSON object (one line;
// several -apps yield JSON Lines).
func printJSON(app twig.App, instructions int64, results []benchResult, grouped *groupedResult, old *benchFile) error {
	rep := jsonReport{benchFile: benchFile{
		Benchmark:    "pipeline",
		App:          string(app),
		Instructions: instructions,
		Results:      results,
		Grouped:      grouped,
	}}
	if old != nil && old.App == string(app) && old.Instructions == instructions {
		for _, r := range results {
			if prev, ok := lookup(old, r.Scheme); ok && prev.SimKIPS > 0 {
				if rep.DeltaVsBaseline == nil {
					rep.DeltaVsBaseline = map[string]float64{}
				}
				rep.DeltaVsBaseline[r.Scheme] = r.SimKIPS/prev.SimKIPS - 1
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(rep)
}

// printTable prints one app's results; when the baseline file covers
// the same app and window, a delta column shows new/old throughput.
// The grouped row reports the single-pass matrix wall clock and its
// speedup over the serial per-scheme sum.
func printTable(app twig.App, instructions int64, results []benchResult, grouped *groupedResult, old *benchFile) {
	comparable := old != nil && old.App == string(app) && old.Instructions == instructions
	fmt.Printf("%s (%d instructions)\n", app, instructions)
	for _, r := range results {
		line := fmt.Sprintf("  %-10s %12d ns/op  %10.0f sim-kIPS", r.Scheme, r.NsPerOp, r.SimKIPS)
		if comparable {
			if prev, ok := lookup(old, r.Scheme); ok {
				line += fmt.Sprintf("  %+6.1f%% vs baseline file (%0.f kIPS)",
					(r.SimKIPS/prev.SimKIPS-1)*100, prev.SimKIPS)
			}
		}
		fmt.Println(line)
	}
	if grouped != nil {
		line := fmt.Sprintf("  %-10s %12d ns/op  %10.0f sim-kIPS  %.2fx vs serial scheme sum",
			fmt.Sprintf("grouped(%d)", len(grouped.Schemes)), grouped.NsPerOp, grouped.SimKIPS, grouped.Speedup)
		if comparable && old.Grouped != nil {
			line += fmt.Sprintf("  [baseline file: %.2fx]", old.Grouped.Speedup)
		}
		fmt.Println(line)
	}
}

func lookup(f *benchFile, scheme string) (benchResult, bool) {
	for _, r := range f.Results {
		if r.Scheme == scheme {
			return r, true
		}
	}
	return benchResult{}, false
}

// checkRegression compares each measured scheme against the baseline
// file and reports whether all stayed within tolerance.
func checkRegression(app twig.App, instructions int64, results []benchResult, old *benchFile, tolerance float64) bool {
	if old.App != string(app) || old.Instructions != instructions {
		fmt.Fprintf(os.Stderr, "twigbench: -check: baseline file is %s/%d instructions, run is %s/%d — rerun with matching -apps/-n\n",
			old.App, old.Instructions, app, instructions)
		return false
	}
	ok := true
	for _, r := range results {
		prev, found := lookup(old, r.Scheme)
		if !found {
			// Not a failure: CI regenerates the baseline at the merge
			// base, where a scheme added on this branch doesn't exist
			// yet. The next -update run picks it up.
			fmt.Printf("  check %-10s SKIP: not in baseline file (new scheme?)\n", r.Scheme)
			continue
		}
		floor := prev.SimKIPS * (1 - tolerance)
		if r.SimKIPS < floor {
			fmt.Fprintf(os.Stderr, "twigbench: REGRESSION %s: %.0f kIPS < floor %.0f (baseline %.0f, tolerance %.0f%%)\n",
				r.Scheme, r.SimKIPS, floor, prev.SimKIPS, tolerance*100)
			ok = false
		} else {
			fmt.Printf("  check %-10s OK: %.0f kIPS >= floor %.0f\n", r.Scheme, r.SimKIPS, floor)
		}
	}
	return ok
}
