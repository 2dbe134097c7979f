package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"twig/internal/core"
)

// metricDef is one reported metric's name and unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics of a timed run (--trace 0), in report
// order; BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"sim_kips", "kIPS"},
	{"sim_ms_p50", "ms"},
	{"sim_ms_p90", "ms"},
	{"sims_executed", "count"},
	{"heap_peak_mb", "MiB"},
}

// perLayer lists the metrics of a traced run (--trace 1).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.build_ms", "ms"},
		{"profile.collect_ms", "ms"},
		{"profile.ns_per_instr", "ns"},
		{"profile.samples", "count"},
		{"twigopt.analyze_ms", "ms"},
		{"twigopt.calls", "count"},
		{"twigopt.us_per_sample", "us"},
		{"program.inject_ms", "ms"},
		{"exec.ns_per_step", "ns"},
	}
	for _, s := range core.SchemeNames {
		defs = append(defs, metricDef{"prefetcher.ns_per_call." + s, "ns"})
	}
	for _, s := range core.SchemeNames {
		defs = append(defs, metricDef{"prefetcher.calls_per_kinstr." + s, "1/kinstr"})
	}
	defs = append(defs,
		metricDef{"cache.ns_per_access", "ns"},
		metricDef{"cache.accesses_per_kinstr", "1/kinstr"},
	)
	for _, s := range core.SchemeNames {
		defs = append(defs, metricDef{"pipeline.ns_per_instr." + s, "ns"})
	}
	for _, s := range core.SchemeNames {
		defs = append(defs, metricDef{"pipeline.self_ns_per_instr." + s, "ns"})
	}
	return append(defs,
		metricDef{"stepcast.grouped_speedup", "ratio"},
		metricDef{"runner.hit_ratio", "ratio"},
		metricDef{"runner.decode_ms", "ms"},
		metricDef{"runner.store_ms", "ms"},
		metricDef{"runner.entry_mb", "MiB"},
		metricDef{"runner.queue_wait_ms", "ms"},
		metricDef{"runner.busy_frac", "ratio"},
		metricDef{"runner.rebuilds", "count"},
		metricDef{"experiments.render_ms", "ms"},
		metricDef{"telemetry.overhead_frac", "ratio"},
		metricDef{"telemetry.ns_per_event", "ns"},
		metricDef{"perfbench.trace_overhead_frac", "ratio"},
	)
}()

// value is one measured metric: the number, how many samples it rests
// on, and the base of a ratio or the reason it was not measured.
type value struct {
	V        float64
	N        int
	Note     string
	Measured bool
}

// report accumulates one run's operations, metrics and context lines.
// Every metric of the run's list starts out unmeasured; a metric left
// unmeasured prints 0 in the JSON line and its reason in the table.
type report struct {
	Workload string
	Seed     int64
	Trace    bool

	Attempted, Failed int
	failures          []string

	defs    []metricDef
	values  map[string]*value
	context []string
}

func newReport(workload string, seed int64, trace bool) *report {
	r := &report{Workload: workload, Seed: seed, Trace: trace, values: map[string]*value{}}
	r.defs = endToEnd
	if trace {
		r.defs = perLayer
	}
	for _, d := range r.defs {
		r.values[d.Name] = &value{Note: "not measured"}
	}
	return r
}

// set records a measured metric. Setting a name outside the run's list
// is a bug in the workload code.
func (r *report) set(name string, v float64, n int, note string) {
	m, ok := r.values[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in this run's list")
	}
	*m = value{V: v, N: n, Note: note, Measured: true}
}

// unmeasured records why a metric has no value on this run.
func (r *report) unmeasured(name, reason string) {
	m, ok := r.values[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in this run's list")
	}
	*m = value{Note: reason}
}

// unmeasuredPrefix marks every metric whose name starts with prefix.
func (r *report) unmeasuredPrefix(prefix, reason string) {
	for _, d := range r.defs {
		if strings.HasPrefix(d.Name, prefix) {
			r.unmeasured(d.Name, reason)
		}
	}
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *report) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// note adds a context line to the printed table.
func (r *report) note(format string, args ...any) {
	r.context = append(r.context, fmt.Sprintf(format, args...))
}

// write prints the human-readable table, then the one-line JSON
// result as the last line.
func (r *report) write(w io.Writer, st stamp) error {
	mode := "timed"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d (%s run)\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "machine: %s\n", st)
	for _, c := range r.context {
		fmt.Fprintf(w, "  %s\n", c)
	}
	for _, d := range r.defs {
		v := r.values[d.Name]
		if !v.Measured {
			fmt.Fprintf(w, "  %-38s %14s %-8s unmeasured: %s\n", d.Name, "-", d.Unit, v.Note)
			continue
		}
		line := fmt.Sprintf("  %-38s %14.4f %-8s n=%d", d.Name, v.V, d.Unit, v.N)
		if v.Note != "" {
			line += "  (" + v.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  failed: %s\n", f)
	}

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jsonMetric, len(r.defs))
	for _, d := range r.defs {
		v := r.values[d.Name].V
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// seconds renders durations in seconds to three decimals.
func seconds(ds []time.Duration) string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%.3f", d.Seconds())
	}
	return "[" + strings.Join(out, " ") + "] s"
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of ds (nearest rank) and how many
// samples lie strictly above it.
func quantile(ds []time.Duration, q float64) (time.Duration, int) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	above := 0
	for _, d := range s {
		if d > s[i] {
			above++
		}
	}
	return s[i], above
}

// median returns the median of ds (the mean of the middle pair when
// the count is even).
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setSimTimes fills sim_ms_p50 and sim_ms_p90 from per-run host times.
// The 90th percentile is a tail estimate only with at least ten runs
// above it; the note says so when there are fewer.
func (r *report) setSimTimes(runs []time.Duration, what string) {
	p50, _ := quantile(runs, 0.5)
	p90, above := quantile(runs, 0.9)
	r.set("sim_ms_p50", ms(p50), len(runs), what)
	note := fmt.Sprintf("%s; %d samples above it", what, above)
	if above < 10 {
		note += "; fewer than ten above, so not a tail estimate"
	}
	r.set("sim_ms_p90", ms(p90), len(runs), note)
}
