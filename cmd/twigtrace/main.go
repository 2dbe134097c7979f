// Command twigtrace records and replays dynamic instruction traces —
// the trace-driven simulation mode (the paper's Scarab consumes Intel
// Processor Trace recordings the same way).
//
//	twigtrace -record -app cassandra -n 1000000 -o cassandra.trc
//	twigtrace -replay cassandra.trc -app cassandra -scheme baseline
//
// A trace is bound to the exact binary it was recorded from (the app
// name and its default build); replaying against anything else fails
// the fingerprint check. -scheme takes any scheme in the scheme table
// that runs that original binary, built at the paper's operating point
// (core.DefaultOptions). A replay whose trace ends before -n
// instructions, or fails to decode, exits 1 without printing numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"twig/internal/core"
	"twig/internal/pipeline"
	"twig/internal/program"
	"twig/internal/telemetry"
	"twig/internal/trace"
	"twig/internal/workload"
)

func main() {
	var (
		record = flag.Bool("record", false, "record a trace")
		replay = flag.String("replay", "", "trace file to replay")
		app    = flag.String("app", "cassandra", "application")
		input  = flag.Int("input", 0, "input configuration number")
		n      = flag.Int64("n", 1_000_000, "instructions to record/replay")
		out    = flag.String("o", "app.trc", "output trace file (with -record)")
		scheme = flag.String("scheme", "baseline", strings.Join(replayable(), "|")+" (with -replay)")
		epoch  = flag.Int64("epoch", 0, "sample metrics every N instructions and print per-epoch IPC (with -replay)")
		events = flag.String("events", "", "write the structured event trace (JSON Lines) to this file (with -replay)")
	)
	flag.Parse()

	params, err := workload.ParamsFor(workload.App(*app))
	if err != nil {
		fatal(err)
	}
	p, err := workload.Build(params)
	if err != nil {
		fatal(err)
	}

	switch {
	case *record:
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := trace.Record(f, p, params.Input(*input), *n); err != nil {
			fatal(err)
		}
		st, _ := f.Stat()
		fmt.Printf("recorded %d instructions of %s (input #%d) to %s (%.2f bytes/instruction)\n",
			*n, *app, *input, *out, float64(st.Size())/float64(*n))

	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		var ev io.Writer
		if *events != "" {
			ef, err := os.Create(*events)
			if err != nil {
				fatal(err)
			}
			defer ef.Close()
			ev = ef
		}
		res, err := replayTrace(f, p, params, *scheme, *n, *epoch, ev)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *replay, err))
		}
		fmt.Printf("replayed %d instructions under %s: IPC %.3f, BTB MPKI %.2f, frontend-bound %.0f%%\n",
			res.Original, *scheme, res.IPC(), res.MPKI(), res.FrontendBoundFrac()*100)
		if s := res.Series; s != nil {
			cyc := s.Col("pipeline_cycles")
			for e := 0; e < s.Len(); e++ {
				ipc := 0.0
				if d := s.Delta(e, cyc); d > 0 {
					ipc = float64(s.DeltaInstructions(e)) / d
				}
				fmt.Printf("epoch %-3d  IPC %.3f\n", e+1, ipc)
			}
		}

	default:
		fmt.Fprintln(os.Stderr, "twigtrace: pass -record or -replay FILE")
		os.Exit(2)
	}
}

// replayTrace simulates n instructions of the trace read from r under
// the named scheme, sampling epochs of the given length (0 = none) and
// writing the event trace to events when it is non-nil. Past the end of
// the recording, or after a decode error, the trace reader falls back
// to sequential execution, so the numbers would describe no recorded
// run: either case is an error naming the step it was hit at.
func replayTrace(r io.Reader, p *program.Program, params workload.Params, scheme string, n, epoch int64, events io.Writer) (*pipeline.Result, error) {
	rd, err := trace.NewReader(r, p)
	if err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultConfig()
	cfg.MaxInstructions = n
	cfg.BackendCPI = params.BackendCPI
	cfg.CondMispredictRate = params.CondMispredictRate
	cfg.Telemetry.EpochLength = epoch
	if events != nil {
		cfg.Telemetry.Tracer = telemetry.NewTracer(events)
	}
	spec, err := core.LookupScheme(scheme)
	if err != nil {
		return nil, err
	}
	if spec.Optimized {
		return nil, fmt.Errorf("scheme %q runs the Twig-optimized binary; a trace replays only the original binary it was recorded from (replayable: %v)",
			scheme, replayable())
	}
	spec.Setup(&cfg, core.DefaultOptions())
	res, err := pipeline.RunSource(p, rd, cfg)
	if err != nil {
		return nil, err
	}
	if err := rd.Err(); err != nil {
		return nil, fmt.Errorf("%w at step %d of %d replayed: the trace is truncated, corrupt or shorter than -n",
			err, rd.Recorded(), rd.Steps())
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "twigtrace:", err)
	os.Exit(1)
}

// replayable lists the table's schemes that run the original binary.
func replayable() []string {
	var names []string
	for _, s := range core.Schemes {
		if !s.Optimized {
			names = append(names, s.Name)
		}
	}
	return names
}
