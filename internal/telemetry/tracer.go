package telemetry

import (
	"io"
	"strconv"
)

// Resteer causes as they appear in trace records.
const (
	CauseBTBMiss = "btb_miss"
	CauseCond    = "cond"
	CauseRAS     = "ras"
	CauseIBTB    = "ibtb"
)

// Tracer is the Sink that streams a run's events as JSON Lines to an
// io.Writer. One line per event, fields always in the same order,
// floats rendered with two decimals — so identical runs produce
// byte-identical traces. The layout-level events (BlockEnter, Taken,
// and BTBMiss's layout index) are not traced.
//
// Record schema (field-by-field; `i` is the committed measured
// original-instruction count, `cyc` the retire-domain cycle, `pc` and
// `line` hex addresses):
//
//	{"ev":"btb_miss","i":N,"cyc":C,"pc":"0x..","kind":K}      demand BTB miss of a taken direct branch (kind cond|jump|call)
//	{"ev":"resteer","i":N,"cyc":C,"cause":X,"pc":"0x.."}      frontend redirect; cause btb_miss|cond|ras|ibtb
//	{"ev":"pf_issue","i":N,"cyc":C,"pc":"0x..","ready":R}     brprefetch/brcoalesce staged an entry, ready at cycle R
//	{"ev":"pf_drop","i":N,"cyc":C,"pc":"0x.."}                prefetch dropped: target already demand-resident
//	{"ev":"pf_use","i":N,"cyc":C,"pc":"0x..","late":L}        demand lookup served by a prefetched entry; L>0 = arrived late by L cycles
//	{"ev":"icache_miss","i":N,"cyc":C,"line":"0x..","lead":D,"exposed":E}
//	                                                          demand L1i miss; D = FDIP run-ahead lead, E = exposed stall
//	{"ev":"epoch","n":E,"i":N,"cyc":C}                        epoch boundary E (1-based)
//
// Rendering JSON costs far more than the simulator can afford per
// event, so the tracer decouples it: the caller's hot path only copies
// a small binary record into a reusable batch (allocation-free, ~10ns)
// and a single formatter goroutine renders batches to JSON in arrival
// order — concurrency changes who formats, never the bytes. Flush is a
// full barrier: it drains every pending batch, writes the remainder,
// stops the formatter (restarted transparently by the next event), and
// returns the sticky write error.
type Tracer struct {
	w      io.Writer
	events int64

	// Producer side.
	cur     []event
	n       int
	running bool
	err     error

	// Channel plumbing (created on first use).
	work chan []event
	free chan []event
	ack  chan error

	// Formatter side — owned by the goroutine while running; the
	// producer may touch them only after the Flush handshake. The two
	// decimal counters render the (near-)monotone "i" and "cyc" fields
	// incrementally; the hex span cache reuses the previous rendering
	// of a repeated operand (a BTB miss and its resteer share pc).
	line    []byte
	ferr    error
	iDec    decCounter
	cDec    decCounter
	lastHex uint64
	ps, pe  int // span of the rendered hex operand; ps < 0 = invalid
}

// decCounter maintains the decimal digit string of a counter that
// mostly advances by small deltas: advancing re-renders only the digits
// the carry reaches (usually one or two) instead of dividing the whole
// value down. A regression falls back to a full render.
type decCounter struct {
	buf   [24]byte // digits live in buf[start:]
	start int
	val   uint64
	valid bool
}

// render returns the digits of v, updating in place.
func (d *decCounter) render(v uint64) []byte {
	if !d.valid || v < d.val {
		d.val, d.valid = v, true
		d.start = len(d.buf)
		for {
			d.start--
			d.buf[d.start] = byte('0' + v%10)
			if v < 10 {
				return d.buf[d.start:]
			}
			v /= 10
		}
	}
	carry := v - d.val
	d.val = v
	for i := len(d.buf); carry > 0; {
		i--
		if i < d.start {
			d.start = i
			d.buf[i] = '0'
		}
		sum := uint64(d.buf[i]-'0') + carry
		d.buf[i] = byte('0' + sum%10)
		carry = sum / 10
	}
	return d.buf[d.start:]
}

// event is the compact binary record handed from the simulation thread
// to the formatter. One struct serves every record type; kind selects
// which fields are meaningful.
type event struct {
	kind  uint8
	instr int64
	cycle float64
	pc    uint64 // pc, cache line, or epoch number
	f1    float64
	f2    float64
	s     string // branch kind or resteer cause (always a constant)
}

const (
	evBTBMiss = iota
	evResteer
	evPfIssue
	evPfDrop
	evPfUse
	evICacheMiss
	evEpoch
)

const (
	tracerBlock   = 32 << 10
	tracerMaxLine = 192 // longest record is ~110 bytes
	batchSize     = 1024
	batchCount    = 5
)

// NewTracer returns a tracer streaming to w. Call Flush when the run
// completes.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, ps: -1}
}

// Events returns the number of records emitted.
func (t *Tracer) Events() int64 { return t.events }

// Err returns the sticky write error as of the last Flush.
func (t *Tracer) Err() error { return t.err }

// slot hands out the next free event in the current batch, shipping the
// batch to the formatter when full, and fills and counts the fields
// every record has.
func (t *Tracer) slot(kind uint8, instr int64, cycle float64, pc uint64) *event {
	if !t.running {
		t.start()
	}
	if t.n == len(t.cur) {
		t.work <- t.cur[:t.n]
		nb := <-t.free
		t.cur = nb[:cap(nb)]
		t.n = 0
	}
	e := &t.cur[t.n]
	t.n++
	t.events++
	e.kind, e.instr, e.cycle, e.pc = kind, instr, cycle, pc
	return e
}

// start spins up the formatter goroutine, creating the channel plumbing
// and batch pool on first use.
func (t *Tracer) start() {
	if t.work == nil {
		t.work = make(chan []event, batchCount)
		t.free = make(chan []event, batchCount+1)
		t.ack = make(chan error, 1)
		for i := 0; i < batchCount-1; i++ {
			t.free <- make([]event, 0, batchSize)
		}
		t.cur = make([]event, batchSize)
		t.n = 0
	}
	go t.format()
	t.running = true
}

// Flush drains pending batches, writes buffered output, and returns the
// sticky error. It is a full barrier; the formatter goroutine exits and
// is restarted by the next event.
func (t *Tracer) Flush() error {
	if t.running {
		if t.n > 0 {
			t.work <- t.cur[:t.n]
			nb := <-t.free
			t.cur = nb[:cap(nb)]
			t.n = 0
		}
		t.work <- nil
		t.err = <-t.ack
		t.running = false
	}
	return t.err
}

// format is the formatter goroutine: renders batches in arrival order,
// recycles them, and exits on the nil sentinel after flushing.
func (t *Tracer) format() {
	if t.line == nil {
		t.line = make([]byte, 0, tracerBlock+tracerMaxLine)
	}
	for b := range t.work {
		if b == nil {
			if t.ferr == nil && len(t.line) > 0 {
				_, t.ferr = t.w.Write(t.line)
			}
			t.line = t.line[:0]
			t.ps = -1
			t.ack <- t.ferr
			return
		}
		for i := range b {
			t.render(&b[i])
		}
		t.free <- b[:0]
	}
}

// render formats one event into the output block.
func (t *Tracer) render(e *event) {
	switch e.kind {
	case evBTBMiss:
		t.head(`{"ev":"btb_miss","i":`, e.instr, e.cycle)
		t.hex(`,"pc":"0x`, e.pc)
		t.str(`,"kind":"`, e.s)
	case evResteer:
		t.head(`{"ev":"resteer","i":`, e.instr, e.cycle)
		t.str(`,"cause":"`, e.s)
		t.hex(`,"pc":"0x`, e.pc)
	case evPfIssue:
		t.head(`{"ev":"pf_issue","i":`, e.instr, e.cycle)
		t.hex(`,"pc":"0x`, e.pc)
		t.num(`,"ready":`, e.f1)
	case evPfDrop:
		t.head(`{"ev":"pf_drop","i":`, e.instr, e.cycle)
		t.hex(`,"pc":"0x`, e.pc)
	case evPfUse:
		t.head(`{"ev":"pf_use","i":`, e.instr, e.cycle)
		t.hex(`,"pc":"0x`, e.pc)
		t.num(`,"late":`, e.f1)
	case evICacheMiss:
		t.head(`{"ev":"icache_miss","i":`, e.instr, e.cycle)
		t.hex(`,"line":"0x`, e.pc)
		t.num(`,"lead":`, e.f1)
		t.num(`,"exposed":`, e.f2)
	case evEpoch:
		if len(t.line) > tracerBlock {
			t.flushBlock()
		}
		b := append(t.line, `{"ev":"epoch","n":`...)
		b = appendUint10(b, e.pc)
		b = append(b, `,"i":`...)
		b = appendUint10(b, uint64(e.instr))
		b = append(b, `,"cyc":`...)
		t.line = appendFixed2(b, e.cycle)
	}
	t.line = append(t.line, '}', '\n')
}

func (t *Tracer) flushBlock() {
	if t.ferr == nil {
		_, t.ferr = t.w.Write(t.line)
	}
	t.line = t.line[:0]
	t.ps = -1
}

// smalls is every two-digit decimal pair, for two-digits-per-division
// formatting (the same trick strconv uses).
const smalls = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendUint10 formats v in decimal via a small stack buffer, two
// digits per division.
func appendUint10(b []byte, v uint64) []byte {
	if v < 10 {
		return append(b, byte('0'+v))
	}
	var a [20]byte
	i := len(a)
	for v >= 100 {
		q := v / 100
		r := (v - q*100) * 2
		i -= 2
		a[i] = smalls[r]
		a[i+1] = smalls[r+1]
		v = q
	}
	if v >= 10 {
		r := v * 2
		i -= 2
		a[i] = smalls[r]
		a[i+1] = smalls[r+1]
	} else {
		i--
		a[i] = byte('0' + v)
	}
	return append(b, a[i:]...)
}

// appendHex formats v in lowercase hex the same way.
func appendHex(b []byte, v uint64) []byte {
	const hexdigits = "0123456789abcdef"
	var a [16]byte
	i := len(a)
	for {
		i--
		a[i] = hexdigits[v&0xf]
		if v < 16 {
			return append(b, a[i:]...)
		}
		v >>= 4
	}
}

// appendFixed2 renders v with exactly two decimals, rounding ties away
// from zero — a fixed-point fast path (AppendFloat's correctly-rounded
// 'f' formatting costs ~10x as much). Values outside the int64-safe
// range, NaN, and infinities fall back to strconv.
func appendFixed2(b []byte, v float64) []byte {
	if !(v > -9e15 && v < 9e15) { // also catches NaN
		return strconv.AppendFloat(b, v, 'f', 2, 64)
	}
	neg := v < 0
	if neg {
		v = -v
	}
	n := uint64(v*100 + 0.5)
	if neg {
		if n == 0 {
			return append(b, '0', '.', '0', '0')
		}
		b = append(b, '-')
	}
	b = appendUint10(b, n/100)
	f := n % 100
	return append(b, '.', byte('0'+f/10), byte('0'+f%10))
}

// head flushes the block if it is full, then starts a line with the
// shared prefix. prefix is the full constant through the "i" key, e.g.
// `{"ev":"btb_miss","i":`.
func (t *Tracer) head(prefix string, instr int64, cycle float64) {
	if len(t.line) > tracerBlock {
		t.flushBlock()
	}
	b := append(t.line, prefix...)
	if instr >= 0 {
		b = append(b, t.iDec.render(uint64(instr))...)
	} else {
		b = append(b, '-')
		b = appendUint10(b, uint64(-instr))
	}
	b = append(b, `,"cyc":`...)
	if cycle >= 0 && cycle < 9e15 {
		// Same rounding as appendFixed2 (ties away from zero).
		n := uint64(cycle*100 + 0.5)
		if n < 100 {
			b = append(b, '0', '.', byte('0'+n/10), byte('0'+n%10))
		} else {
			dg := t.cDec.render(n)
			b = append(b, dg[:len(dg)-2]...)
			b = append(b, '.')
			b = append(b, dg[len(dg)-2:]...)
		}
	} else {
		b = appendFixed2(b, cycle)
	}
	t.line = b
}

// hex appends a hex field; prefix is the full constant through the
// opening quote, e.g. `,"pc":"0x`.
func (t *Tracer) hex(prefix string, v uint64) {
	b := append(t.line, prefix...)
	if t.ps >= 0 && v == t.lastHex {
		n := len(b)
		b = append(b, b[t.ps:t.pe]...)
		t.ps, t.pe = n, len(b)
	} else {
		t.lastHex = v
		t.ps = len(b)
		b = appendHex(b, v)
		t.pe = len(b)
	}
	t.line = append(b, '"')
}

// str appends a string field; prefix as in hex, e.g. `,"kind":"`.
func (t *Tracer) str(prefix, v string) {
	b := append(t.line, prefix...)
	b = append(b, v...)
	t.line = append(b, '"')
}

// num appends a two-decimal float field; prefix includes the colon,
// e.g. `,"ready":`.
func (t *Tracer) num(prefix string, v float64) {
	t.line = appendFixed2(append(t.line, prefix...), v)
}

// BlockEnter implements Sink; block entries are not traced.
func (t *Tracer) BlockEnter(int32) {}

// Taken implements Sink; taken branches are not traced.
func (t *Tracer) Taken(int32, int32, float64) {}

// BTBMiss records a demand BTB miss of a taken direct branch.
func (t *Tracer) BTBMiss(instr int64, cycle float64, _ int32, pc uint64, kind string) {
	t.slot(evBTBMiss, instr, cycle, pc).s = kind
}

// Resteer records a frontend redirect with its cause.
func (t *Tracer) Resteer(instr int64, cycle float64, cause string, pc uint64) {
	t.slot(evResteer, instr, cycle, pc).s = cause
}

// PrefetchIssue records a staged software prefetch.
func (t *Tracer) PrefetchIssue(instr int64, cycle float64, pc uint64, ready float64) {
	t.slot(evPfIssue, instr, cycle, pc).f1 = ready
}

// PrefetchDrop records a redundant software prefetch.
func (t *Tracer) PrefetchDrop(instr int64, cycle float64, pc uint64) {
	t.slot(evPfDrop, instr, cycle, pc)
}

// PrefetchUse records a demand lookup served from the prefetch buffer;
// late > 0 means the entry arrived that many cycles after the lookup.
func (t *Tracer) PrefetchUse(instr int64, cycle float64, pc uint64, late float64) {
	t.slot(evPfUse, instr, cycle, pc).f1 = late
}

// ICacheMiss records a demand L1i miss with the FDIP run-ahead lead and
// the exposed (non-hidden) stall.
func (t *Tracer) ICacheMiss(instr int64, cycle float64, line uint64, lead, exposed float64) {
	e := t.slot(evICacheMiss, instr, cycle, line)
	e.f1, e.f2 = lead, exposed
}

// EpochMark records an epoch boundary (n is 1-based).
func (t *Tracer) EpochMark(n, instr int64, cycle float64) {
	t.slot(evEpoch, instr, cycle, uint64(n))
}
