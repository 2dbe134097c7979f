package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if again := r.Counter("events_total"); again != c {
		t.Fatal("re-registering a counter must return the same instance")
	}
	if v, ok := r.Value("events_total"); !ok || v != 3 {
		t.Fatalf("Value = %v,%v, want 3,true", v, ok)
	}
}

func TestGaugeRebind(t *testing.T) {
	r := NewRegistry()
	r.Gauge("x", func() float64 { return 1 })
	r.Gauge("x", func() float64 { return 2 }) // rebinding replaces the reader
	if v, _ := r.Value("x"); v != 2 {
		t.Fatalf("gauge = %v, want 2 after rebind", v)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0, 0.9, 1, 2, 3, 16, 31, 1e6} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	// v < 1 → bucket 0; [1,2) → 1; [2,4) → 2; [16,32) → 5.
	wants := map[int]int64{0: 2, 1: 1, 2: 2, 5: 2, 20: 1}
	for b, want := range wants {
		if got := h.Bucket(b); got != want {
			t.Errorf("bucket[%d] = %d, want %d", b, got, want)
		}
	}
	if h.Mean() == 0 {
		t.Fatal("mean must be non-zero")
	}
}

// TestPrometheusGolden pins the exposition format byte for byte; the
// live endpoint, the -metrics flags, and downstream scrapers all depend
// on this exact shape.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	// Register out of lexicographic order to prove the writer sorts.
	h := r.Histogram("lead_cycles")
	r.Counter("events_total").Add(3)
	r.Gauge("ipc", func() float64 { return 1.5 })
	for _, v := range []float64{0, 1, 3, 20} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r, "twig"); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/prom.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("exposition differs from testdata/prom.golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), golden)
	}
}

func TestWriteVarsIsValidJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(7)
	r.Gauge("b", func() float64 { return 2.25 })
	r.Gauge("nan", func() float64 { return nan() })
	r.Histogram("h").Observe(5)
	var buf bytes.Buffer
	if err := WriteVars(&buf, r); err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	if m["a"] != 7 || m["b"] != 2.25 || m["h_count"] != 1 || m["h_sum"] != 5 || m["nan"] != 0 {
		t.Fatalf("unexpected vars: %v", m)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestSamplerSeries(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	c.Add(100) // warmup accumulation, present in the base row

	s := NewSampler(r, 10)
	s.Begin()
	c.Add(10)
	s.Sample(10)
	c.Add(30)
	s.Sample(20)

	ser := s.Series()
	if ser.Len() != 2 {
		t.Fatalf("len = %d, want 2", ser.Len())
	}
	col := ser.Col("n")
	if col < 0 {
		t.Fatal("missing column n")
	}
	if v := ser.Value(1, col); v != 40 {
		t.Fatalf("Value(1) = %v, want 40 (base-relative)", v)
	}
	if d := ser.Delta(0, col); d != 10 {
		t.Fatalf("Delta(0) = %v, want 10 (warmup excluded)", d)
	}
	if d := ser.Delta(1, col); d != 30 {
		t.Fatalf("Delta(1) = %v, want 30", d)
	}
	if n := ser.DeltaInstructions(1); n != 10 {
		t.Fatalf("DeltaInstructions(1) = %d, want 10", n)
	}

	// Registrations after NewSampler must not corrupt existing rows.
	r.Counter("late")
	s.Sample(30)
	if got := len(ser.Samples[2]); got != len(ser.Columns) {
		t.Fatalf("row width %d != columns %d", got, len(ser.Columns))
	}
}

func TestTracerFormatAndDeterminism(t *testing.T) {
	emit := func(w io.Writer) {
		tr := NewTracer(w)
		tr.BTBMiss(1, 10.125, 0, 0x400abc, "cond")
		tr.Resteer(1, 10.125, CauseBTBMiss, 0x400abc)
		tr.PrefetchIssue(2, 11, 0x400b00, 14)
		tr.PrefetchDrop(3, 12, 0x400b08)
		tr.PrefetchUse(4, 13.5, 0x400b00, 0.5)
		tr.ICacheMiss(5, 14, 0x10003, 6.25, 2)
		tr.EpochMark(1, 100000, 50000.75)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if tr.Events() != 7 {
			t.Fatalf("events = %d, want 7", tr.Events())
		}
	}
	var a, b bytes.Buffer
	emit(&a)
	emit(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical event streams must serialize byte-identically")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != 7 {
		t.Fatalf("got %d lines, want 7", len(lines))
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", ln, err)
		}
		if _, ok := m["ev"]; !ok {
			t.Fatalf("line %q lacks ev field", ln)
		}
	}
	if want := `{"ev":"btb_miss","i":1,"cyc":10.13,"pc":"0x400abc","kind":"cond"}`; lines[0] != want {
		t.Fatalf("first line = %q, want %q", lines[0], want)
	}
}

func TestTracerBlockFlush(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	for i := 0; i < 5000; i++ {
		tr.BTBMiss(int64(i), float64(i), 0, uint64(0x400000+i), "jump")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 5000 {
		t.Fatalf("got %d lines, want 5000", n)
	}
}

func TestLiveServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(42)
	s := NewLiveServer()
	addr, stop, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	sampler := NewSampler(r, 5)
	sampler.Begin()
	sampler.Sample(5)
	s.Update(r, sampler.Series())
	if s.Updates() != 1 {
		t.Fatalf("updates = %d, want 1", s.Updates())
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "twig_hits 42") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/vars"); !strings.Contains(body, `"hits": 42`) {
		t.Fatalf("/vars missing counter:\n%s", body)
	}
	var series map[string]any
	if err := json.Unmarshal([]byte(get("/series")), &series); err != nil {
		t.Fatalf("/series is not valid JSON: %v", err)
	}
	if series["epoch_length"].(float64) != 5 {
		t.Fatalf("series epoch_length = %v, want 5", series["epoch_length"])
	}
}
