// Command experiments regenerates the paper's tables and figures.
//
//	experiments                         # everything (takes a while)
//	experiments -only fig16,fig17       # specific experiments
//	experiments -instructions 5000000   # larger windows, tighter numbers
//	experiments -apps cassandra,kafka   # application subset
//	experiments -j 8 -cache .twig-cache # parallel, with a persistent cache
//	experiments -ledger run.jsonl       # span-structured run ledger + summary footer
//	experiments -perfetto trace.json    # ledger as Perfetto-loadable trace_event JSON
//	experiments -listen :8080 -j 8      # live runner stats (watch with cmd/twigtop)
//	experiments -only sampled -sample   # interval-sampled estimates with confidence intervals
//	experiments -coordinator http://host:9090  # offload the matrix to a twigd fleet
//	experiments -cache-ls -cache .twig-cache   # enumerate the result cache and exit
//	experiments -list                   # show experiment IDs
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"html/template"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"twig"
	"twig/internal/experiments"
	"twig/internal/runner"
	"twig/internal/sampling"
	"twig/internal/telemetry"
	"twig/internal/twigd"
)

// liveSamplePeriod is the wall-clock sampling period for the runner
// utilization series served on -listen during parallel runs.
const liveSamplePeriod = 500 * time.Millisecond

func main() {
	var (
		only         = flag.String("only", "", "comma-separated experiment IDs (empty = all)")
		apps         = flag.String("apps", "", "comma-separated application subset (empty = all nine)")
		instructions = flag.Int64("instructions", 1_000_000, "simulation window per run")
		list         = flag.Bool("list", false, "list experiment IDs and exit")
		htmlOut      = flag.String("html", "", "also write a self-contained HTML report to this file")
		listen       = flag.String("listen", "", `serve a live stats endpoint (e.g. ":8080") showing the currently running simulation`)
		epoch        = flag.Int64("epoch", 0, "live-endpoint refresh period in instructions (0 = window/10; with -listen)")
		jobs         = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation jobs (1 = serial)")
		cacheDir     = flag.String("cache", runner.DefaultCacheDir(), "persistent result cache directory (default $"+runner.CacheDirEnv+"; empty = no disk cache)")
		coordinator  = flag.String("coordinator", "", `twigd coordinator base URL (e.g. "http://host:9090"): offer the standard matrix to the fleet, replay its results via the shared remote cache`)
		timeout      = flag.Duration("timeout", 0, "per-job timeout, e.g. 10m (0 = none)")
		ledgerOut    = flag.String("ledger", "", "write the span-structured run ledger (JSONL) to this file and print the summary footer")
		perfettoOut  = flag.String("perfetto", "", "write the run ledger as Chrome trace_event JSON (loadable in Perfetto) to this file")
		profileDir   = flag.String("profiledir", "", "capture per-job CPU/heap pprof profiles into this directory")
		sample       = flag.Bool("sample", false, `interval-sampled estimation for the "sampled" experiment (see -interval/-period)`)
		interval     = flag.Int64("interval", 0, "sampled-interval length in instructions (0 = window/20; with -sample)")
		period       = flag.Int("period", 4, "measure one interval of every N (with -sample)")
		sampleSeed   = flag.Uint64("sampleseed", 0, "non-zero = seeded-random interval selection; 0 = systematic (with -sample)")
		cacheLs      = flag.Bool("cache-ls", false, "enumerate the result cache (per-codec entry counts, bytes, stale/corrupt totals) and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range twig.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	var appList []twig.App
	if *apps != "" {
		for _, a := range strings.Split(*apps, ",") {
			appList = append(appList, twig.App(strings.TrimSpace(a)))
		}
	}

	var out io.Writer = os.Stdout
	var captured bytes.Buffer
	if *htmlOut != "" {
		out = io.MultiWriter(os.Stdout, &captured)
	}

	if *jobs <= 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}

	cache, err := runner.OpenCache(*cacheDir, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *cacheLs {
		if err := listCache(os.Stdout, cache); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	var ledger *telemetry.Ledger
	if *ledgerOut != "" || *perfettoOut != "" {
		ledger = telemetry.NewLedger()
	}
	if *profileDir != "" {
		if err := os.MkdirAll(*profileDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	run := runner.New(runner.Options{Workers: *jobs, Timeout: *timeout, Cache: cache,
		Ledger: ledger, ProfileDir: *profileDir})

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	ctx := experiments.NewContext(out, *instructions)
	ctx.SetRunner(run)
	ctx.SetContext(sigCtx)
	if len(appList) > 0 {
		ctx.Apps = appList
	}
	if *sample {
		if *period < 1 {
			fmt.Fprintf(os.Stderr, "experiments: -period must be at least 1 (got %d)\n", *period)
			os.Exit(1)
		}
		iv := *interval
		if iv <= 0 {
			iv = ctx.Opts.Pipeline.MaxInstructions / 20
		}
		if iv < 1 {
			iv = 1
		}
		ctx.Opts.Sample = sampling.Spec{Interval: iv, Period: *period, Seed: *sampleSeed, Warmup: iv / 4}
	}
	if *listen != "" {
		reg := telemetry.NewRegistry()
		live := telemetry.NewLiveServer()
		addr, stop, err := live.Start(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer stop()
		run.PublishTo(reg)
		if *jobs == 1 {
			// Serial runs can additionally wire the pipeline's own
			// counters into the registry: exactly one simulation is
			// live at a time, and the epoch sink publishes snapshots
			// from the simulation thread.
			period := *epoch
			if period <= 0 {
				period = ctx.Opts.Pipeline.MaxInstructions / 10
			}
			if period <= 0 {
				period = 1
			}
			ctx.Opts.Telemetry.Registry = reg
			ctx.Opts.Telemetry.EpochLength = period
			ctx.Opts.Pipeline.Sink = telemetry.EpochPublisher{Live: live, Registry: reg}
		} else {
			// Parallel runs publish the runner's utilization series
			// instead: every gauge is an atomic read, so a wall-clock
			// ticker can sample them safely alongside the worker pool.
			// The series' instruction axis carries cumulative elapsed
			// milliseconds (twigtop derives kIPS and busy fractions
			// from the deltas).
			sampler := telemetry.NewSampler(reg, int64(liveSamplePeriod/time.Millisecond))
			sampler.Begin()
			tick := time.NewTicker(liveSamplePeriod)
			done := make(chan struct{})
			go func() {
				start := time.Now()
				for {
					select {
					case <-tick.C:
						sampler.Sample(time.Since(start).Milliseconds())
						live.Update(reg, sampler.Series())
					case <-done:
						return
					}
				}
			}()
			defer func() { tick.Stop(); close(done) }()
		}
		fmt.Fprintf(os.Stderr, "experiments: live stats on http://%s\n", addr)
	}

	if *coordinator != "" {
		// Fleet mode: attach the coordinator's blob store as the cache's
		// remote tier and offer the standard matrix (every app × scheme,
		// input 0) to the fleet before running. Experiments then replay
		// fleet results as remote cache hits; everything else — sweeps,
		// derived stats, anything the fleet dropped — executes locally,
		// so the output is byte-identical with or without a fleet.
		client := twigd.NewClient(*coordinator)
		cache.SetRemote(client.Blobs(), runner.DefaultRemoteBackoff(), -1)
		if runner.Cacheable(ctx.Opts) {
			specs := twigd.MatrixSpecs(ctx.SimConfig(), ctx.Apps, nil, []int{0})
			err := client.Drain(sigCtx, specs, func(msg string) {
				fmt.Fprintln(os.Stderr, "coordinator:", msg)
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "coordinator: %v; continuing locally\n", err)
				if client.Ping() != nil {
					cache.SetRemote(nil, runner.Backoff{}, 0)
				}
			}
		} else {
			fmt.Fprintln(os.Stderr, "coordinator: runs carry telemetry observers; not distributing (remote cache still attached)")
		}
	}

	start := time.Now()
	if err := ctx.RunSelected(ids, *jobs); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Printf("\nrunner: %s\n", run.Stats().Summary())
	fmt.Printf("completed in %s\n", time.Since(start).Round(time.Second))

	if ledger != nil {
		fmt.Print("\n" + ledgerFooter(ledger, run.Stats()))
		if *ledgerOut != "" {
			if err := writeLedgerFile(*ledgerOut, ledger.WriteJSONL); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: writing ledger:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *ledgerOut)
		}
		if *perfettoOut != "" {
			if err := writeLedgerFile(*perfettoOut, ledger.WriteTraceEvent); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: writing trace:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *perfettoOut)
		}
	}

	if *htmlOut != "" {
		if err := writeHTML(*htmlOut, captured.String(), *instructions, time.Since(start)); err != nil {
			fmt.Fprintln(os.Stderr, "experiments: writing html:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *htmlOut)
	}
}

// listCache enumerates the cache's disk tier and prints per-codec entry
// counts and sizes plus stale/corrupt totals (the -cache-ls mode).
func listCache(w io.Writer, cache *runner.Cache) error {
	type bucket struct {
		entries int
		bytes   int64
	}
	kinds := map[string]*bucket{}
	var total bucket
	var stale, corrupt int
	err := cache.Walk(func(e runner.WalkEntry) error {
		total.entries++
		total.bytes += e.Bytes
		switch {
		case e.Err != nil:
			corrupt++
			return nil
		case e.Stale:
			stale++
			return nil
		}
		b := kinds[e.Codec]
		if b == nil {
			b = &bucket{}
			kinds[e.Codec] = b
		}
		b.entries++
		b.bytes += e.Bytes
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cache: %d entries, %d bytes\n", total.entries, total.bytes)
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-10s %6d entries %12d bytes\n", k, kinds[k].entries, kinds[k].bytes)
	}
	if stale > 0 {
		fmt.Fprintf(w, "  %-10s %6d entries\n", "stale", stale)
	}
	if corrupt > 0 {
		fmt.Fprintf(w, "  %-10s %6d entries\n", "corrupt", corrupt)
	}
	return nil
}

// writeLedgerFile streams one ledger export to path.
func writeLedgerFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// section is one experiment's rendered output for the HTML report.
type section struct {
	ID, Title, Paper, Body string
}

// parseSections splits the text output on its "== id: title ==" headers.
func parseSections(text string) []section {
	var out []section
	var cur *section
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " =="):
			if cur != nil {
				out = append(out, *cur)
			}
			head := strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==")
			id, title, _ := strings.Cut(head, ": ")
			cur = &section{ID: id, Title: title}
		case cur != nil && strings.HasPrefix(line, "paper: "):
			cur.Paper = strings.TrimPrefix(line, "paper: ")
		case cur != nil:
			cur.Body += line + "\n"
		}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	for i := range out {
		out[i].Body = strings.TrimSpace(out[i].Body)
	}
	return out
}

var reportTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>Twig reproduction — experiment report</title>
<style>
body { font-family: system-ui, sans-serif; max-width: 72rem; margin: 2rem auto; padding: 0 1rem; color: #1a1a1a; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.1rem; margin-top: 2rem; border-top: 1px solid #ddd; padding-top: 1rem; }
pre { background: #f6f8fa; padding: .8rem; overflow-x: auto; font-size: .85rem; line-height: 1.35; }
.paper { color: #555; font-style: italic; margin: .2rem 0 .6rem; }
nav a { margin-right: .8rem; font-size: .85rem; }
footer { margin-top: 2rem; color: #777; font-size: .8rem; }
</style></head><body>
<h1>Twig: Profile-Guided BTB Prefetching — reproduction report</h1>
<p>Every table and figure of the paper (MICRO '21), regenerated at
{{.Instructions}}-instruction windows in {{.Elapsed}}. Paper-vs-measured
analysis: EXPERIMENTS.md.</p>
<nav>{{range .Sections}}<a href="#{{.ID}}">{{.ID}}</a> {{end}}</nav>
{{range .Sections}}
<h2 id="{{.ID}}">{{.ID}}: {{.Title}}</h2>
{{if .Paper}}<div class="paper">paper: {{.Paper}}</div>{{end}}
<pre>{{.Body}}</pre>
{{end}}
<footer>generated by cmd/experiments</footer>
</body></html>
`))

func writeHTML(path, text string, instructions int64, elapsed time.Duration) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	data := struct {
		Sections     []section
		Instructions int64
		Elapsed      time.Duration
	}{parseSections(text), instructions, elapsed.Round(time.Second)}
	if err := reportTmpl.Execute(f, data); err != nil {
		return err
	}
	return f.Close()
}
