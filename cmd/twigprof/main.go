// Command twigprof collects and saves a BTB-miss profile, or optimizes
// a binary from a previously saved profile — the decoupled flow the
// paper deploys: profiles come from production machines (perf + LBR),
// optimization happens offline at link time.
//
//	twigprof -app cassandra -n 2000000 -o cassandra.prof     # collect
//	twigprof -app cassandra -use cassandra.prof              # optimize + measure
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"twig/internal/core"
	"twig/internal/metrics"
	"twig/internal/profile"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

func main() {
	var (
		app         = flag.String("app", "cassandra", "application")
		input       = flag.Int("input", 0, "input configuration number")
		n           = flag.Int64("n", 2_000_000, "instructions to profile / evaluate")
		out         = flag.String("o", "", "save the collected profile to this file")
		use         = flag.String("use", "", "optimize from this saved profile instead of collecting")
		rate        = flag.Int("rate", 1, "sample every Nth BTB miss")
		events      = flag.String("trace", "", "write the evaluation runs' event trace (JSON Lines) to this file (with -use)")
		metricsFile = flag.String("metrics", "", `write the Prometheus exposition after evaluation to this file ("-" = stdout; with -use)`)
	)
	flag.Parse()

	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = *n
	opts.SampleRate = *rate

	switch {
	case *use != "":
		f, err := os.Open(*use)
		if err != nil {
			fatal(err)
		}
		prof, err := profile.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		var reg *telemetry.Registry
		if *metricsFile != "" {
			reg = telemetry.NewRegistry()
			opts.Telemetry.Registry = reg
		}
		if *events != "" {
			ef, err := os.Create(*events)
			if err != nil {
				fatal(err)
			}
			defer ef.Close()
			opts.Telemetry.Tracer = telemetry.NewTracer(ef)
		}
		art, err := core.BuildWithProfile(workload.App(*app), prof, opts)
		if err != nil {
			fatal(err)
		}
		base, err := art.RunScheme("baseline", *input, opts)
		if err != nil {
			fatal(err)
		}
		tw, err := art.RunScheme("twig", *input, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("optimized %s from %s: %d placements, %d table entries\n",
			*app, *use, len(art.Analysis.Placements), len(art.Optimized.CoalesceTable))
		fmt.Printf("speedup %+.2f%%, coverage %.1f%%, accuracy %.1f%%\n",
			metrics.Speedup(base.IPC(), tw.IPC()),
			metrics.Coverage(base.BTB.DirectMisses(), tw.BTB.DirectMisses()),
			tw.Prefetch.Accuracy()*100)
		if reg != nil {
			var w io.Writer = os.Stdout
			if *metricsFile != "-" {
				mf, err := os.Create(*metricsFile)
				if err != nil {
					fatal(err)
				}
				defer mf.Close()
				w = mf
			}
			if err := telemetry.WritePrometheus(w, reg, "twig"); err != nil {
				fatal(err)
			}
		}

	default:
		params, err := workload.ParamsFor(workload.App(*app))
		if err != nil {
			fatal(err)
		}
		p, err := workload.Build(params)
		if err != nil {
			fatal(err)
		}
		opts.ProfileInstructions = *n
		prof, err := core.CollectProfile(p, params, *input, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("profiled %s: %d instructions, %d BTB-miss samples over %d branches\n",
			*app, prof.Instructions, len(prof.Samples), len(prof.MissCounts))
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			if err := prof.Save(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			st, _ := os.Stat(*out)
			fmt.Printf("saved to %s (%d bytes)\n", *out, st.Size())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "twigprof:", err)
	os.Exit(1)
}
