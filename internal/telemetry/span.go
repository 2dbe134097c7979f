package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Span tracing: the run ledger.
//
// A Ledger collects hierarchical spans — named, categorized intervals
// with ordered attributes — from every layer of the execution stack:
// runner jobs (queue wait, cache probe, execution attempts), pipeline
// runs (warmup and measure phases), broadcast producers, and experiment
// figures. Finished spans export two ways:
//
//   - WriteJSONL renders one JSON object per span, sorted by the span's
//     canonical path, so two ledgers of the same run are comparable
//     line-by-line (see CanonicalizeJSONL for the timing-insensitive
//     form the determinism tests diff).
//   - WriteTraceEvent renders the Chrome trace_event JSON that Perfetto
//     and chrome://tracing load directly, with concurrent root spans
//     spread over lanes (tid) by a deterministic interval coloring.
//
// Span identity is deterministic by construction: a span's ID is a hash
// of its path — the parent's path plus the span's name and its ordinal
// among same-named siblings — never of a wall-clock reading or a global
// arrival counter. Two runs that create the same span structure in the
// same per-parent order therefore produce identical IDs regardless of
// worker count or scheduling (the j1-vs-j8 ledger test pins this).
// Wall-clock time appears only in the start_us/dur_us timing fields.
//
// The zero ledger pointer is the disabled state: a nil *Ledger hands
// out nil *Span values, and every Span method is a no-op on nil, so
// instrumentation sites need no enablement branches.

// SpanID is the 64-bit deterministic span identity (FNV-1a of the
// span's canonical path), rendered as 16 hex digits in exports.
type SpanID uint64

// String renders the ID as exports do.
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// fnv1a hashes s with 64-bit FNV-1a.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Attr is one ordered span attribute. Exactly one of the value fields
// is meaningful, selected by kind.
type Attr struct {
	Key string

	kind byte // 's', 'i', 'f', 'b'
	s    string
	i    int64
	f    float64
	b    bool
}

// appendJSONValue renders the attribute value as JSON.
func (a *Attr) appendJSONValue(buf []byte) []byte {
	switch a.kind {
	case 'i':
		return strconv.AppendInt(buf, a.i, 10)
	case 'f':
		return appendValue(buf, a.f)
	case 'b':
		return strconv.AppendBool(buf, a.b)
	default:
		q, _ := json.Marshal(a.s)
		return append(buf, q...)
	}
}

// Ledger collects finished spans. All methods are safe for concurrent
// use; the nil *Ledger is the disabled state.
type Ledger struct {
	epoch time.Time
	now   func() time.Duration // elapsed since the ledger epoch

	mu       sync.Mutex
	finished []*Span
	rootSeq  map[string]int
}

// NewLedger returns an empty ledger timing spans against the monotonic
// clock from this moment.
func NewLedger() *Ledger {
	l := &Ledger{epoch: time.Now(), rootSeq: make(map[string]int)}
	l.now = func() time.Duration { return time.Since(l.epoch) }
	return l
}

// NewLedgerWithClock returns a ledger reading span times from clock —
// deterministic clocks make ledger exports byte-reproducible in tests.
func NewLedgerWithClock(clock func() time.Duration) *Ledger {
	return &Ledger{now: clock, rootSeq: make(map[string]int)}
}

// Len returns the number of finished spans.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.finished)
}

// Span is one interval in the ledger. Create children with Child, add
// attributes with the Attr* methods, and call End exactly once; a span
// that never ends is not exported. A span must be mutated only by the
// goroutine that owns it (creating children is safe from any
// goroutine, but same-named siblings created concurrently get
// scheduling-dependent ordinals, which breaks ledger determinism — give
// concurrent children distinct names).
type Span struct {
	ledger *Ledger
	parent SpanID
	id     SpanID
	path   string
	name   string
	cat    string
	start  time.Duration
	dur    time.Duration
	attrs  []Attr

	mu       sync.Mutex // guards childSeq
	childSeq map[string]int
}

// Begin starts a root span. Same-named roots are ordinal-disambiguated
// in creation order.
func (l *Ledger) Begin(name, cat string) *Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	seq := l.rootSeq[name]
	l.rootSeq[name] = seq + 1
	l.mu.Unlock()
	return l.newSpan(0, "", name, cat, seq)
}

// newSpan builds a span under parentPath with the given sibling
// ordinal.
func (l *Ledger) newSpan(parent SpanID, parentPath, name, cat string, seq int) *Span {
	path := name
	if parentPath != "" {
		path = parentPath + "/" + name
	}
	if seq > 0 {
		path += "#" + strconv.Itoa(seq)
	}
	return &Span{
		ledger: l,
		parent: parent,
		id:     SpanID(fnv1a(path)),
		path:   path,
		name:   name,
		cat:    cat,
		start:  l.now(),
	}
}

// Child starts a span nested under s. On a nil span it returns nil, so
// call chains need no enablement branches.
func (s *Span) Child(name, cat string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.childSeq == nil {
		s.childSeq = make(map[string]int)
	}
	seq := s.childSeq[name]
	s.childSeq[name] = seq + 1
	s.mu.Unlock()
	return s.ledger.newSpan(s.id, s.path, name, cat, seq)
}

// ID returns the span's deterministic identity (0 on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// AttrStr appends a string attribute.
func (s *Span) AttrStr(key, v string) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, kind: 's', s: v})
	}
}

// AttrInt appends an integer attribute.
func (s *Span) AttrInt(key string, v int64) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, kind: 'i', i: v})
	}
}

// AttrFloat appends a float attribute.
func (s *Span) AttrFloat(key string, v float64) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, kind: 'f', f: v})
	}
}

// AttrBool appends a boolean attribute.
func (s *Span) AttrBool(key string, v bool) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, kind: 'b', b: v})
	}
}

// End finishes the span and records it in the ledger. Calling End on a
// nil span is a no-op; ending twice records twice (don't).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.dur = s.ledger.now() - s.start
	if s.dur < 0 {
		s.dur = 0
	}
	l := s.ledger
	l.mu.Lock()
	l.finished = append(l.finished, s)
	l.mu.Unlock()
}

// Duration returns the span's duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// spanContextKey keys the active span in a context.Context.
type spanContextKey struct{}

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanContextKey{}, sp)
}

// SpanFromContext returns the active span, or nil — and nil composes:
// Child and the Attr methods no-op on it.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanContextKey{}).(*Span)
	return sp
}

// sorted returns the finished spans ordered by canonical path — the
// export order, stable across scheduling.
func (l *Ledger) sorted() []*Span {
	l.mu.Lock()
	spans := make([]*Span, len(l.finished))
	copy(spans, l.finished)
	l.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].path < spans[j].path })
	return spans
}

// Spans returns the finished spans in export (path) order.
func (l *Ledger) Spans() []*Span {
	if l == nil {
		return nil
	}
	return l.sorted()
}

// appendJSONL renders one span as its ledger line.
func (s *Span) appendJSONL(buf []byte) []byte {
	buf = append(buf, `{"id":"`...)
	buf = append(buf, s.id.String()...)
	buf = append(buf, `","parent":"`...)
	if s.parent != 0 {
		buf = append(buf, s.parent.String()...)
	}
	buf = append(buf, `","name":`...)
	q, _ := json.Marshal(s.name)
	buf = append(buf, q...)
	buf = append(buf, `,"cat":`...)
	q, _ = json.Marshal(s.cat)
	buf = append(buf, q...)
	buf = append(buf, `,"start_us":`...)
	buf = strconv.AppendInt(buf, s.start.Microseconds(), 10)
	buf = append(buf, `,"dur_us":`...)
	buf = strconv.AppendInt(buf, s.dur.Microseconds(), 10)
	if len(s.attrs) > 0 {
		buf = append(buf, `,"attrs":{`...)
		for i := range s.attrs {
			if i > 0 {
				buf = append(buf, ',')
			}
			q, _ = json.Marshal(s.attrs[i].Key)
			buf = append(buf, q...)
			buf = append(buf, ':')
			buf = s.attrs[i].appendJSONValue(buf)
		}
		buf = append(buf, '}')
	}
	return append(buf, '}', '\n')
}

// WriteJSONL writes the run ledger: one JSON object per finished span,
// sorted by canonical path.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	var buf []byte
	for _, s := range l.sorted() {
		buf = s.appendJSONL(buf[:0])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// laneOf assigns each root span a lane by greedy interval coloring in
// start order: the smallest lane whose previous occupant ended before
// this span starts. Children inherit their root's lane. Deterministic
// given the spans' timing.
func lanes(spans []*Span) map[SpanID]int {
	roots := make([]*Span, 0, len(spans))
	for _, s := range spans {
		if s.parent == 0 {
			roots = append(roots, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].start != roots[j].start {
			return roots[i].start < roots[j].start
		}
		return roots[i].path < roots[j].path
	})
	lane := make(map[SpanID]int, len(spans))
	var laneEnd []time.Duration
	for _, r := range roots {
		placed := -1
		for i, end := range laneEnd {
			if end <= r.start {
				placed = i
				break
			}
		}
		if placed < 0 {
			placed = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[placed] = r.start + r.dur
		lane[r.id] = placed
	}
	// Propagate root lanes down the tree (spans are path-sorted, so a
	// parent precedes its children and one pass suffices).
	for _, s := range spans {
		if s.parent != 0 {
			lane[s.id] = lane[s.parent]
		}
	}
	return lane
}

// WriteTraceEvent writes the ledger as Chrome trace_event JSON — load
// the file in Perfetto (ui.perfetto.dev) or chrome://tracing. Each
// span becomes a complete ("ph":"X") event; concurrent root spans are
// spread over tid lanes by a deterministic interval coloring, and
// children share their root's lane so nested phases render as stacked
// slices.
func (l *Ledger) WriteTraceEvent(w io.Writer) error {
	if l == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	spans := l.sorted()
	lane := lanes(spans)
	buf := []byte(`{"traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n "...)
		buf = append(buf, `{"name":`...)
		q, _ := json.Marshal(s.name)
		buf = append(buf, q...)
		buf = append(buf, `,"cat":`...)
		q, _ = json.Marshal(s.cat)
		buf = append(buf, q...)
		buf = append(buf, `,"ph":"X","ts":`...)
		buf = strconv.AppendInt(buf, s.start.Microseconds(), 10)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendInt(buf, s.dur.Microseconds(), 10)
		buf = append(buf, `,"pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(lane[s.id]), 10)
		buf = append(buf, `,"args":{"id":"`...)
		buf = append(buf, s.id.String()...)
		buf = append(buf, `"`...)
		for j := range s.attrs {
			buf = append(buf, ',')
			q, _ = json.Marshal(s.attrs[j].Key)
			buf = append(buf, q...)
			buf = append(buf, ':')
			buf = s.attrs[j].appendJSONValue(buf)
		}
		buf = append(buf, `}}`...)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		buf = buf[:0]
	}
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return err
}

// LedgerRecord is the decoded form of one ledger JSONL line — the
// schema contract the validator enforces and tools consume.
type LedgerRecord struct {
	ID      string         `json:"id"`
	Parent  string         `json:"parent"`
	Name    string         `json:"name"`
	Cat     string         `json:"cat"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs"`
}

// ReadLedger decodes a JSONL run ledger, validating each record
// against the schema: exactly the LedgerRecord fields, a 16-hex-digit
// id, a parent that is empty or references a span present in the file,
// a non-empty name, and non-negative timing.
func ReadLedger(r io.Reader) ([]LedgerRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var out []LedgerRecord
	ids := make(map[string]bool)
	parents := make(map[string]int) // parent id -> first line using it
	line := 0
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec LedgerRecord
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("ledger line %d: %w", line, err)
		}
		if err := rec.validate(); err != nil {
			return nil, fmt.Errorf("ledger line %d: %w", line, err)
		}
		if ids[rec.ID] {
			return nil, fmt.Errorf("ledger line %d: duplicate span id %s", line, rec.ID)
		}
		ids[rec.ID] = true
		if rec.Parent != "" {
			if _, seen := parents[rec.Parent]; !seen {
				parents[rec.Parent] = line
			}
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for p, ln := range parents {
		if !ids[p] {
			return nil, fmt.Errorf("ledger line %d: parent %s references no span in the ledger", ln, p)
		}
	}
	return out, nil
}

// validate checks one record against the schema.
func (r *LedgerRecord) validate() error {
	if len(r.ID) != 16 {
		return fmt.Errorf("id %q is not 16 hex digits", r.ID)
	}
	if _, err := strconv.ParseUint(r.ID, 16, 64); err != nil {
		return fmt.Errorf("id %q is not hex: %v", r.ID, err)
	}
	if r.Parent != "" {
		if len(r.Parent) != 16 {
			return fmt.Errorf("parent %q is not 16 hex digits", r.Parent)
		}
		if _, err := strconv.ParseUint(r.Parent, 16, 64); err != nil {
			return fmt.Errorf("parent %q is not hex: %v", r.Parent, err)
		}
	}
	if r.Name == "" {
		return fmt.Errorf("span %s has no name", r.ID)
	}
	if r.StartUS < 0 || r.DurUS < 0 {
		return fmt.Errorf("span %s has negative timing (start_us=%d dur_us=%d)", r.ID, r.StartUS, r.DurUS)
	}
	return nil
}

// ValidateLedgerJSONL checks a run ledger against the schema and
// returns the number of valid records.
func ValidateLedgerJSONL(r io.Reader) (int, error) {
	recs, err := ReadLedger(r)
	return len(recs), err
}

// CanonicalizeJSONL strips the timing fields (start_us, dur_us) from a
// run ledger and re-renders it sorted — the scheduling- and
// timing-insensitive form two runs of the same work must agree on
// byte-for-byte (the j1-vs-j8 determinism oracle).
func CanonicalizeJSONL(data []byte) ([]byte, error) {
	recs, err := ReadLedger(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	lines := make([]string, 0, len(recs))
	for i := range recs {
		recs[i].StartUS, recs[i].DurUS = 0, 0
		b, err := json.Marshal(&recs[i])
		if err != nil {
			return nil, err
		}
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	var out bytes.Buffer
	for _, ln := range lines {
		out.WriteString(ln)
		out.WriteByte('\n')
	}
	return out.Bytes(), nil
}

// TraceEventFile is the decoded trace_event export, for round-trip
// tests and tools.
type TraceEventFile struct {
	TraceEvents []TraceEvent `json:"traceEvents"`
	DisplayUnit string       `json:"displayTimeUnit"`
}

// TraceEvent is one decoded trace_event record.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// ReadTraceEvents decodes a trace_event export, checking the fields
// Perfetto requires: every event complete ("X"), non-negative timing,
// and a distinct args.id.
func ReadTraceEvents(r io.Reader) (*TraceEventFile, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f TraceEventFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("trace_event: %w", err)
	}
	ids := make(map[string]bool, len(f.TraceEvents))
	for i := range f.TraceEvents {
		ev := &f.TraceEvents[i]
		if ev.Ph != "X" {
			return nil, fmt.Errorf("trace_event %d (%s): phase %q, want X", i, ev.Name, ev.Ph)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			return nil, fmt.Errorf("trace_event %d (%s): negative timing", i, ev.Name)
		}
		id, _ := ev.Args["id"].(string)
		if id == "" {
			return nil, fmt.Errorf("trace_event %d (%s): missing args.id", i, ev.Name)
		}
		if ids[id] {
			return nil, fmt.Errorf("trace_event %d (%s): duplicate args.id %s", i, ev.Name, id)
		}
		ids[id] = true
	}
	return &f, nil
}

// DurationsByName returns the durations of all finished spans with the
// given name, in export order — queue-wait and phase distributions for
// summaries.
func (l *Ledger) DurationsByName(name string) []time.Duration {
	if l == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range l.sorted() {
		if s.name == name {
			out = append(out, s.dur)
		}
	}
	return out
}

// Ranked is a span with the self time it is ranked by.
type Ranked struct {
	Span *Span
	Self time.Duration
}

// DepsWaitSpan names the child span in which a runner job (or group)
// with dependencies waits for them. The runner opens it whenever the
// job has dependencies, resolved or not, so the ledger's shape stays
// independent of worker count.
const DepsWaitSpan = "deps.wait"

// SlowestByCat returns up to n finished spans of the given category,
// slowest first by self time: a span's duration minus those of its
// direct DepsWaitSpan children, so a job is not charged for the
// dependencies it waited on. Ties break by path, so the order is
// deterministic under a deterministic clock.
func (l *Ledger) SlowestByCat(cat string, n int) []Ranked {
	if l == nil {
		return nil
	}
	spans := l.sorted()
	excluded := make(map[SpanID]time.Duration)
	for _, s := range spans {
		if s.name == DepsWaitSpan {
			excluded[s.parent] += s.dur
		}
	}
	var out []Ranked
	for _, s := range spans {
		if s.cat == cat {
			out = append(out, Ranked{Span: s, Self: s.dur - excluded[s.id]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Percentile returns the p-quantile (0..1) of durations by
// nearest-rank, or 0 for an empty set.
func Percentile(durs []time.Duration, p float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
