package telemetry

import (
	"bytes"
	"context"
	"flag"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// ledgerFile is set by the CI ledger job to validate a ledger written
// by a real `experiments -ledger` run (see TestLedgerFileValidates).
var ledgerFile = flag.String("ledger-file", "", "path to a run-ledger JSONL file to validate")

// traceFile is the companion flag for a trace_event export.
var traceFile = flag.String("trace-file", "", "path to a trace_event JSON file to validate")

// tickClock returns a deterministic clock advancing 1ms per reading.
func tickClock() func() time.Duration {
	var t time.Duration
	return func() time.Duration {
		t += time.Millisecond
		return t
	}
}

func TestSpanIDsDeterministic(t *testing.T) {
	build := func() *Ledger {
		l := NewLedgerWithClock(tickClock())
		root := l.Begin("exp:fig1", "exp")
		a := root.Child("job:sim(a)", "job")
		a.AttrStr("kind", "sim")
		aw := a.Child("queue.wait", "sched")
		aw.End()
		a.End()
		b := root.Child("job:sim(b)", "job")
		b.End()
		root.End()
		return l
	}
	l1, l2 := build(), build()
	s1, s2 := l1.Spans(), l2.Spans()
	if len(s1) != len(s2) || len(s1) != 4 {
		t.Fatalf("span counts: %d vs %d, want 4", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].ID() != s2[i].ID() {
			t.Fatalf("span %d (%s): id %s vs %s", i, s1[i].path, s1[i].ID(), s2[i].ID())
		}
		if s1[i].path != s2[i].path {
			t.Fatalf("span %d path %q vs %q", i, s1[i].path, s2[i].path)
		}
	}
	// IDs are path hashes, independent of clock readings or creation
	// order of differently-named siblings.
	l3 := NewLedgerWithClock(func() time.Duration { return 42 * time.Hour })
	r3 := l3.Begin("exp:fig1", "exp")
	b3 := r3.Child("job:sim(b)", "job") // b before a this time
	a3 := r3.Child("job:sim(a)", "job")
	b3.End()
	a3.End()
	r3.End()
	want := map[string]SpanID{}
	for _, s := range s1 {
		want[s.path] = s.ID()
	}
	for _, s := range l3.Spans() {
		if id, ok := want[s.path]; ok && id != s.ID() {
			t.Fatalf("path %q: id changed with clock/order: %s vs %s", s.path, s.ID(), id)
		}
	}
}

func TestSpanSiblingOrdinals(t *testing.T) {
	l := NewLedgerWithClock(tickClock())
	root := l.Begin("run", "exp")
	c1 := root.Child("attempt", "exec")
	c2 := root.Child("attempt", "exec")
	c1.End()
	c2.End()
	root.End()
	if c1.ID() == c2.ID() {
		t.Fatal("same-named siblings share an ID")
	}
	if c1.path != "run/attempt" || c2.path != "run/attempt#1" {
		t.Fatalf("paths %q, %q", c1.path, c2.path)
	}
	// Same-named roots disambiguate too.
	r2 := l.Begin("run", "exp")
	r2.End()
	if r2.path != "run#1" {
		t.Fatalf("second root path %q", r2.path)
	}
}

func TestSpanNilSafety(t *testing.T) {
	var l *Ledger
	sp := l.Begin("x", "y")
	if sp != nil {
		t.Fatal("nil ledger returned a span")
	}
	// All of these must no-op, not panic.
	child := sp.Child("c", "d")
	child.AttrStr("k", "v")
	child.AttrInt("k", 1)
	child.AttrFloat("k", 1.5)
	child.AttrBool("k", true)
	child.End()
	sp.End()
	if sp.ID() != 0 || sp.Name() != "" || sp.Duration() != 0 {
		t.Fatal("nil span accessors not zero")
	}
	if l.Len() != 0 || l.Spans() != nil || l.DurationsByName("x") != nil || l.SlowestByCat("y", 3) != nil {
		t.Fatal("nil ledger accessors not empty")
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteJSONL: err=%v len=%d", err, buf.Len())
	}
	buf.Reset()
	if err := l.WriteTraceEvent(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTraceEvents(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("nil-ledger trace_event does not decode: %v", err)
	}
}

func TestSpanContext(t *testing.T) {
	l := NewLedgerWithClock(tickClock())
	root := l.Begin("root", "exp")
	ctx := ContextWithSpan(context.Background(), root)
	got := SpanFromContext(ctx)
	if got != root {
		t.Fatal("SpanFromContext did not return the stored span")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context yielded a span")
	}
	// Storing nil leaves the context untouched.
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("ContextWithSpan(nil) allocated a new context")
	}
	root.End()
}

func TestLedgerJSONLSchema(t *testing.T) {
	l := NewLedgerWithClock(tickClock())
	root := l.Begin("exp:fig1", "exp")
	job := root.Child("job:sim(a)", "job")
	job.AttrStr("kind", "sim")
	job.AttrInt("attempts", 1)
	job.AttrFloat("speedup", 1.25)
	job.AttrBool("hit", false)
	job.End()
	root.End()

	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateLedgerJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ledger fails its own schema: %v\n%s", err, buf.Bytes())
	}
	if n != 2 {
		t.Fatalf("validated %d records, want 2", n)
	}
	recs, err := ReadLedger(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var jobRec *LedgerRecord
	for i := range recs {
		if recs[i].Name == "job:sim(a)" {
			jobRec = &recs[i]
		}
	}
	if jobRec == nil {
		t.Fatalf("job record missing:\n%s", buf.Bytes())
	}
	if jobRec.Parent != root.ID().String() {
		t.Fatalf("job parent %q, want %q", jobRec.Parent, root.ID().String())
	}
	if jobRec.Attrs["kind"] != "sim" || jobRec.Attrs["attempts"] != float64(1) ||
		jobRec.Attrs["speedup"] != 1.25 || jobRec.Attrs["hit"] != false {
		t.Fatalf("attrs decoded wrong: %#v", jobRec.Attrs)
	}
}

func TestLedgerValidatorRejects(t *testing.T) {
	cases := map[string]string{
		"bad id":         `{"id":"xyz","parent":"","name":"a","cat":"c","start_us":0,"dur_us":1}`,
		"orphan parent":  `{"id":"0000000000000001","parent":"00000000000000ff","name":"a","cat":"c","start_us":0,"dur_us":1}`,
		"empty name":     `{"id":"0000000000000001","parent":"","name":"","cat":"c","start_us":0,"dur_us":1}`,
		"negative time":  `{"id":"0000000000000001","parent":"","name":"a","cat":"c","start_us":-1,"dur_us":1}`,
		"unknown field":  `{"id":"0000000000000001","parent":"","name":"a","cat":"c","start_us":0,"dur_us":1,"bogus":1}`,
		"duplicate id":   "{\"id\":\"0000000000000001\",\"parent\":\"\",\"name\":\"a\",\"cat\":\"c\",\"start_us\":0,\"dur_us\":1}\n{\"id\":\"0000000000000001\",\"parent\":\"\",\"name\":\"b\",\"cat\":\"c\",\"start_us\":0,\"dur_us\":1}",
		"not json":       `nope`,
		"bad parent hex": `{"id":"0000000000000001","parent":"zz","name":"a","cat":"c","start_us":0,"dur_us":1}`,
	}
	for name, line := range cases {
		if _, err := ValidateLedgerJSONL(strings.NewReader(line)); err == nil {
			t.Errorf("%s: validator accepted %q", name, line)
		}
	}
	// Blank lines are fine.
	if n, err := ValidateLedgerJSONL(strings.NewReader("\n\n")); err != nil || n != 0 {
		t.Fatalf("blank ledger: n=%d err=%v", n, err)
	}
}

func TestTraceEventRoundTrip(t *testing.T) {
	l := NewLedgerWithClock(tickClock())
	// Two overlapping roots force two lanes; a third that starts after
	// the first ends reuses lane 0.
	r1 := l.Begin("job:a", "job")
	r2 := l.Begin("job:b", "job")
	c := r1.Child("measure", "pipeline")
	c.AttrInt("instructions", 1000)
	c.End()
	r1.End()
	r2.End()
	r3 := l.Begin("job:c", "job")
	r3.End()

	var buf bytes.Buffer
	if err := l.WriteTraceEvent(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := ReadTraceEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("export does not round-trip: %v\n%s", err, buf.Bytes())
	}
	if len(f.TraceEvents) != 4 {
		t.Fatalf("%d events, want 4", len(f.TraceEvents))
	}
	lanes := map[string]int{}
	for _, ev := range f.TraceEvents {
		lanes[ev.Name] = ev.TID
		if ev.PID != 1 {
			t.Fatalf("%s: pid %d", ev.Name, ev.PID)
		}
	}
	if lanes["job:a"] == lanes["job:b"] {
		t.Fatalf("overlapping roots share lane %d", lanes["job:a"])
	}
	if lanes["measure"] != lanes["job:a"] {
		t.Fatal("child did not inherit its root's lane")
	}
	if lanes["job:c"] != 0 {
		t.Fatalf("post-overlap root got lane %d, want reuse of 0", lanes["job:c"])
	}
	// The attribute survives the round trip inside args.
	for _, ev := range f.TraceEvents {
		if ev.Name == "measure" && ev.Args["instructions"] != float64(1000) {
			t.Fatalf("measure args: %#v", ev.Args)
		}
	}
}

func TestCanonicalizeJSONL(t *testing.T) {
	build := func(clock func() time.Duration, swap bool) []byte {
		l := NewLedgerWithClock(clock)
		root := l.Begin("run", "exp")
		names := []string{"job:a", "job:b"}
		if swap {
			names[0], names[1] = names[1], names[0]
		}
		for _, n := range names {
			c := root.Child(n, "job")
			c.AttrStr("kind", "sim")
			c.End()
		}
		root.End()
		var buf bytes.Buffer
		if err := l.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	slow := func() func() time.Duration {
		var t time.Duration
		return func() time.Duration { t += 7 * time.Millisecond; return t }
	}
	c1, err := CanonicalizeJSONL(build(tickClock(), false))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CanonicalizeJSONL(build(slow(), true))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c2) {
		t.Fatalf("canonical ledgers differ:\n%s\nvs\n%s", c1, c2)
	}
	if bytes.Contains(c1, []byte(`"start_us":7`)) {
		t.Fatal("canonical form retains timing")
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	l := NewLedger()
	root := l.Begin("root", "exp")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct names per goroutine: ordinal assignment under
			// concurrency is exercised without breaking determinism.
			c := root.Child("job:"+string(rune('a'+i)), "job")
			c.AttrInt("i", int64(i))
			gc := c.Child("queue.wait", "sched")
			gc.End()
			c.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if l.Len() != 33 {
		t.Fatalf("finished %d spans, want 33", l.Len())
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateLedgerJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("concurrent ledger invalid: %v", err)
	}
}

func TestLedgerSummaries(t *testing.T) {
	clock := tickClock()
	l := NewLedgerWithClock(clock)
	root := l.Begin("run", "exp")
	for i, extra := range []int{0, 4, 2} { // dur 1ms, 5ms, 3ms (one tick each + extra)
		c := root.Child("job:"+string(rune('a'+i)), "job")
		for j := 0; j < extra; j++ {
			clock()
		}
		c.End()
	}
	w := root.Child("queue.wait", "sched")
	w.End()
	root.End()

	slow := l.SlowestByCat("job", 2)
	if len(slow) != 2 || slow[0].Span.Name() != "job:b" || slow[1].Span.Name() != "job:c" {
		names := make([]string, len(slow))
		for i, s := range slow {
			names[i] = s.Span.Name()
		}
		t.Fatalf("slowest = %v", names)
	}
	if d := l.DurationsByName("queue.wait"); len(d) != 1 {
		t.Fatalf("queue.wait durations: %v", d)
	}
	durs := []time.Duration{1, 2, 3, 4, 100}
	if p := Percentile(durs, 0.5); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := Percentile(durs, 0.95); p != 100 {
		t.Fatalf("p95 = %v", p)
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
}

// TestLedgerFileValidates validates external artifacts produced by a
// real run — CI passes -ledger-file / -trace-file after running a
// small experiments matrix with tracing enabled. Without the flags it
// is a no-op.
func TestLedgerFileValidates(t *testing.T) {
	if *ledgerFile == "" && *traceFile == "" {
		t.Skip("no -ledger-file / -trace-file given")
	}
	if *ledgerFile != "" {
		f, err := os.Open(*ledgerFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		n, err := ValidateLedgerJSONL(f)
		if err != nil {
			t.Fatalf("ledger %s invalid: %v", *ledgerFile, err)
		}
		if n == 0 {
			t.Fatalf("ledger %s has no spans", *ledgerFile)
		}
		t.Logf("ledger %s: %d spans valid", *ledgerFile, n)
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tf, err := ReadTraceEvents(f)
		if err != nil {
			t.Fatalf("trace %s invalid: %v", *traceFile, err)
		}
		if len(tf.TraceEvents) == 0 {
			t.Fatalf("trace %s has no events", *traceFile)
		}
		t.Logf("trace %s: %d events valid", *traceFile, len(tf.TraceEvents))
	}
}
