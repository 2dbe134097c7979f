// Package main is perfbench, the repository's benchmark. It drives the
// simulator only through public functions of its packages, times each
// layer from outside, and prints one JSON result line last:
//
//	perfbench --workload schemes --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - schemes: all seven schemes by name through core.RunScheme, one run
//     at a time on one goroutine, over verilator, cassandra and
//     wordpress × five seed-chosen evaluation inputs (105 runs).
//   - suite-warm: experiments fig16, fig17 and fig19 on the same three
//     apps through Context.RunSelected with a disk cache and nproc
//     workers; set-up is the cold pass that fills the cache, the
//     measured phase the warm rerun.
//   - sweep: the fig27 coalesce-mask grid (seven widths) on cassandra
//     and wordpress from one seed-chosen training profile each.
//
// --trace 0 runs tracing off and prints the end-to-end metrics; --trace 1
// is a separate traced run that prints the per-layer metrics, its own
// overhead against an untraced pass, and checks that tracing changed no
// simulated result. -write-digests regenerates digests.json.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// Root is the repository checkout the benchmark runs in; scratch
	// files go under Root/.bench_build.
	Root string
}

func (c runConfig) runID(workload string) string {
	return fmt.Sprintf("%s-seed%d-pid%d", workload, c.Seed, os.Getpid())
}

// spanPath is where a traced run writes its spans.
func (c runConfig) spanPath(workload string) string {
	return filepath.Join(c.Root, ".bench_build", "spans", c.runID(workload)+".jsonl")
}

// scratch is a directory for one run's files, removed by the caller.
func (c runConfig) scratch(workload string) (string, error) {
	dir := filepath.Join(c.Root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, c.runID(workload)+"-")
}

var workloads = map[string]func(runConfig) (*report, error){
	"schemes":    runSchemes,
	"suite-warm": runSuiteWarm,
	"sweep":      runSweep,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "schemes, suite-warm or sweep")
	seed := fs.Int64("seed", 1, "workload seed: picks the evaluation and training inputs")
	seconds := fs.Float64("seconds", 10, "the measured phase repeats whole passes until this long has passed")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	writeDigests := fs.String("write-digests", "", "compute every cell's digest and write them to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := checkoutRoot()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *writeDigests != "" {
		if err := writeDigestFile(*writeDigests); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	f, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want schemes, suite-warm or sweep)\n", *wl)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Root: root}
	// The workloads time their one-goroutine work on this thread's CPU
	// clock (see cpuclock.go).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rep, err := f(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout, machineStamp(root)); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// checkoutRoot finds the repository root: the working directory or
// the nearest parent holding go.mod and BENCHMARK.json.
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "go.mod")) && isFile(filepath.Join(dir, "BENCHMARK.json")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository checkout (go.mod beside BENCHMARK.json) above the working directory")
		}
		dir = parent
	}
}

func isFile(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.Mode().IsRegular()
}
