package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"twig/internal/core"
	"twig/internal/pipeline"
	"twig/internal/workload"
)

// TestBenchmarkJSONMatchesReport checks that BENCHMARK.json lists the
// same metric names and units the report prints.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, report has %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], report %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
}

// TestReportNamesEveryMetric checks that both kinds of run print every
// metric of their list, with its unit, in the last line, and name the
// reason for each one left unmeasured.
func TestReportNamesEveryMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		r := newReport("schemes", 1, trace)
		r.set(r.defs[0].Name, 1.5, 3, "")
		r.unmeasured(r.defs[1].Name, "planted reason")
		r.op(nil)
		var out bytes.Buffer
		if err := r.write(&out, stamp{CPU: "test"}); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the JSON result: %v", err)
		}
		if len(res.Metrics) != len(r.defs) {
			t.Errorf("trace=%v: %d metrics in the JSON line, want %d", trace, len(res.Metrics), len(r.defs))
		}
		for _, d := range r.defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s missing or with unit %q, want %q", trace, d.Name, m.Unit, d.Unit)
			}
			if !strings.Contains(out.String(), d.Name) {
				t.Errorf("trace=%v: table does not name %s", trace, d.Name)
			}
		}
		if !strings.Contains(out.String(), "n=3") || !strings.Contains(out.String(), "planted reason") {
			t.Errorf("trace=%v: table lacks the sample count or the unmeasured reason:\n%s", trace, out.String())
		}
		if !res.Correct || res.Attempted != 1 || res.Failed != 0 {
			t.Errorf("trace=%v: result %+v", trace, res)
		}
	}
}

// TestFailedChecksCountAsFailedOperations plants a digest mismatch and
// a run error and checks that each counts as one failed operation.
func TestFailedChecksCountAsFailedOperations(t *testing.T) {
	res := &pipeline.Result{Cycles: 1000, ICacheAccesses: 10}
	key := schemeKey(workload.WordPress, "baseline", 0)
	book := digestBook{key: digest(res)}
	r := newReport("schemes", 1, false)
	r.op(book.check(key, res))
	if r.Failed != 0 {
		t.Fatalf("matching digest failed: %v", r.failures)
	}
	planted := *res
	planted.ICacheMisses++
	r.op(book.check(key, &planted))
	r.op(errors.New("planted run error"))
	r.op(book.check("schemes/nowhere/baseline/0", res))
	if r.Attempted != 4 || r.Failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", r.Attempted, r.Failed)
	}
	var out bytes.Buffer
	if err := r.write(&out, stamp{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), `"failed":3`) {
		t.Errorf("result line does not report the failures:\n%s", out.String())
	}
}

// TestCommittedDigestsCoverEverySeed checks that every cell a seed can
// select has a committed digest.
func TestCommittedDigestsCoverEverySeed(t *testing.T) {
	book, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for in := 0; in < evalPool; in++ {
		for _, app := range trio {
			for _, s := range core.SchemeNames {
				if _, ok := book[schemeKey(app, s, in)]; !ok {
					t.Errorf("no digest for %s", schemeKey(app, s, in))
				}
			}
		}
	}
	for train := 0; train < trainPool; train++ {
		for _, app := range sweepApps {
			for _, w := range maskWidths {
				if _, ok := book[sweepKey(app, w, train)]; !ok {
					t.Errorf("no digest for %s", sweepKey(app, w, train))
				}
			}
		}
	}
}

// TestSeedMappingDeterministic checks that a seed always maps to the
// same inputs, that inputs stay in their pools, and that seeds differ.
func TestSeedMappingDeterministic(t *testing.T) {
	distinct := map[string]bool{}
	for seed := int64(-3); seed < 50; seed++ {
		a, b := planFor(seed), planFor(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %+v then %+v", seed, a, b)
		}
		if len(a.Inputs) != schemeInputs {
			t.Fatalf("seed %d: %d inputs", seed, len(a.Inputs))
		}
		seen := map[int]bool{}
		for _, in := range a.Inputs {
			if in < 0 || in >= evalPool || seen[in] {
				t.Fatalf("seed %d: inputs %v leave the pool or repeat", seed, a.Inputs)
			}
			seen[in] = true
		}
		if a.Train < 0 || a.Train >= trainPool {
			t.Fatalf("seed %d: training input %d", seed, a.Train)
		}
		k, _ := json.Marshal(a)
		distinct[string(k)] = true
	}
	if len(distinct) < 20 {
		t.Errorf("53 seeds gave only %d distinct plans", len(distinct))
	}
	if got := planFor(1); !reflect.DeepEqual(got, plan{Inputs: []int{0, 2, 3, 5, 9}, Train: 0}) {
		t.Errorf("seed 1 maps to %+v; the mapping changed", got)
	}
}

// TestTapeReplayReproducesRun records a short-window run of every
// scheme and checks that both replays reproduce its BTB and L1i
// counters.
func TestTapeReplayReproducesRun(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = 40_000
	opts.Pipeline.Warmup = 20_000
	tr, err := buildAndProfile(workload.WordPress, 0, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, an, err := tr.optimize(opts.Opt, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	a := tr.artifacts(opt, an)
	for _, name := range core.SchemeNames {
		cfg, prog, err := schemeConfig(a, name, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, tape, err := recordTape(prog, a.Input(3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.RunScheme(name, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		if digest(res) != digest(want) {
			t.Fatalf("%s: taped run differs from core.RunScheme", name)
		}
		fresh, _, _ := schemeConfig(a, name, opts)
		sr, err := replayScheme(tape.tape, fresh.Scheme, prog, res)
		if err != nil {
			t.Errorf("%s: scheme replay: %v", name, err)
		} else if sr.Calls == 0 {
			t.Errorf("%s: scheme replay made no calls", name)
		}
		ops, err := cacheOps(tape.tape, cfg)
		if err != nil {
			t.Errorf("%s: cache ops: %v", name, err)
			continue
		}
		if _, err := replayCache(ops, cfg, res); err != nil {
			t.Errorf("%s: cache replay: %v", name, err)
		}
		// A replay of a different run must not pass.
		other := *res
		other.ICacheMisses++
		if _, err := replayCache(ops, cfg, &other); err == nil {
			t.Errorf("%s: cache replay accepted a run with different L1i counters", name)
		}
	}
}

// TestLayersJSONNamesRealMetrics checks that the per-layer prediction
// table in layers.json names only metrics the report prints, covers
// every per-layer metric, and predicts moves of real end-to-end
// metrics on real workloads.
func TestLayersJSONNamesRealMetrics(t *testing.T) {
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Layers []struct {
			Layer      string
			Metrics    []string
			ShouldMove []struct {
				Metric    string
				Workloads []string
			} `json:"should_move"`
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	layerMetric := map[string]bool{}
	for _, d := range perLayer {
		layerMetric[d.Name] = false
	}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	for _, l := range doc.Layers {
		for _, m := range l.Metrics {
			names := []string{m}
			if strings.HasSuffix(m, ".<scheme>") {
				names = nil
				for _, s := range core.SchemeNames {
					names = append(names, strings.TrimSuffix(m, "<scheme>")+s)
				}
			}
			for _, n := range names {
				if _, ok := layerMetric[n]; !ok {
					t.Errorf("layer %s names %s, which the report does not print", l.Layer, n)
				}
				layerMetric[n] = true
			}
		}
		for _, mv := range l.ShouldMove {
			if !e2e[mv.Metric] {
				t.Errorf("layer %s predicts a move of %s, not an end-to-end metric", l.Layer, mv.Metric)
			}
			for _, w := range mv.Workloads {
				if workloads[w] == nil {
					t.Errorf("layer %s predicts a move on unknown workload %s", l.Layer, w)
				}
			}
		}
	}
	for n, seen := range layerMetric {
		if !seen {
			t.Errorf("per-layer metric %s has no row in layers.json", n)
		}
	}
}

// TestCoverage checks the union-of-intervals arithmetic behind
// experiments.render_ms.
func TestCoverage(t *testing.T) {
	iv := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {7, 9}, {20, 30}}
	if got := coverage(iv, 0, 25); got != 4+4+5 {
		t.Errorf("coverage = %d, want 13", got)
	}
	if got := coverage(nil, 0, 10); got != 0 {
		t.Errorf("empty coverage = %d", got)
	}
}

// TestPaceScalesToReference checks the gauge arithmetic: a phase whose
// samples took twice the reference time reports half its CPU time, and
// a phase without samples reports it unscaled.
func TestPaceScalesToReference(t *testing.T) {
	slow := pace{spent: 6 * gaugeRef, n: 3}
	if got := slow.scale(10 * time.Second); got != 5*time.Second {
		t.Errorf("scaled at factor 2 = %v, want 5s", got)
	}
	if got := slow.merge(pace{spent: 2 * gaugeRef, n: 1}).factor(); got != 2 {
		t.Errorf("merged factor = %v, want 2", got)
	}
	if got := (pace{}).scale(time.Second); got != time.Second {
		t.Errorf("scaled without samples = %v, want 1s", got)
	}
}

// TestMeterTimesOnlyTheCall checks that a meter takes its gauge samples
// after each call and keeps their time out of the phase's CPU time.
func TestMeterTimesOnlyTheCall(t *testing.T) {
	m := &meter{g: newGauge(), after: 2}
	d := m.time(func() {})
	if m.pace.n != 2 {
		t.Fatalf("%d gauge samples, want 2", m.pace.n)
	}
	if m.cpu != d || d >= m.pace.spent/2 {
		t.Errorf("an empty call took %v of CPU time against %v per gauge sample", d, m.pace.spent/2)
	}
}
