// Package trace records and replays dynamic instruction streams — the
// repository's equivalent of the paper's trace-driven Scarab mode
// (the authors collected Intel Processor Trace recordings to simulate
// kernel-mode code that PIN cannot instrument; here traces let a run be
// captured once and replayed under many machine configurations, or
// shipped between machines).
//
// # Format
//
// A trace is a stream of taken control transfers, not of instructions:
// between taken branches execution is sequential (not-taken
// conditionals included), so the encoding stores (run-length, target)
// varint pairs — one pair per taken branch. For typical data-center
// streams this is ~0.2 bytes per instruction.
//
//	magic   "TWIGTRC1"
//	fingerprint uvarint   — program identity hash
//	start   uvarint       — layout index of the first instruction
//	pairs   (uvarint run, uvarint target)*
//	        run    = instructions executed since the previous pair,
//	                 ending with the taken branch itself;
//	        target = layout index the transfer lands on, or the
//	                 sentinel (run ends without a transfer — only the
//	                 final, partial run uses this).
//
// A trace is only replayable against the exact program it was recorded
// from; the fingerprint (a hash over instruction kinds, sizes, and
// targets) enforces that.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"twig/internal/exec"
	"twig/internal/program"
)

const magic = "TWIGTRC1"

// sentinel marks a final run that ends without a control transfer.
const sentinel = ^uint64(0) >> 1 // large, varint-encodable, never a valid index

// Fingerprint returns the program identity hash stored in trace
// headers.
func Fingerprint(p *program.Program) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	add := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	add(uint64(len(p.Instrs)))
	add(p.BaseAddr)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		add(uint64(in.Kind)<<56 | uint64(in.Size)<<48 | uint64(uint32(in.Target)))
	}
	return h.Sum64()
}

// Writer records a step stream to an io.Writer.
type Writer struct {
	w       *bufio.Writer
	started bool
	runLen  uint64
	err     error
}

// NewWriter begins a trace of p into w.
func NewWriter(w io.Writer, p *program.Program) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	tw := &Writer{w: bw}
	tw.putUvarint(Fingerprint(p))
	return tw, tw.err
}

func (t *Writer) putUvarint(v uint64) {
	if t.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, t.err = t.w.Write(buf[:n])
}

// Record appends one executed step. Steps must be fed in execution
// order starting from the first.
func (t *Writer) Record(st *exec.Step) {
	if !t.started {
		t.putUvarint(uint64(st.Idx))
		t.started = true
	}
	t.runLen++
	if st.Taken {
		t.putUvarint(t.runLen)
		t.putUvarint(uint64(st.NextIdx))
		t.runLen = 0
	}
}

// Flush completes the trace, terminating a trailing sequential run with
// the sentinel pair.
func (t *Writer) Flush() error {
	if t.err == nil && t.runLen > 0 {
		t.putUvarint(t.runLen)
		t.putUvarint(sentinel)
		t.runLen = 0
	}
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Record captures n instructions of p's execution under in and writes
// the trace to w.
func Record(w io.Writer, p *program.Program, in exec.Input, n int64) error {
	ex, err := exec.New(p, in)
	if err != nil {
		return err
	}
	tw, err := NewWriter(w, p)
	if err != nil {
		return err
	}
	var st exec.Step
	for i := int64(0); i < n; i++ {
		ex.Next(&st)
		tw.Record(&st)
	}
	return tw.Flush()
}

// Reader replays a trace as an exec.Source. It also implements
// exec.BatchSource, expanding whole (run, target) pairs per refill;
// pipeline consumers pull through exec.Fill and get the batch path
// automatically.
type Reader struct {
	r   *bufio.Reader
	p   *program.Program
	cur int32
	// run counts instructions left in the current pair; target is the
	// landing index when it expires (-1 for the sentinel).
	run    uint64
	target int32
	err    error
	errAt  int64 // step at which err was set
	steps  int64
}

// NewReader opens a trace of p from r, verifying the fingerprint.
func NewReader(r io.Reader, p *program.Program) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	fp, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading fingerprint: %w", err)
	}
	if fp != Fingerprint(p) {
		return nil, fmt.Errorf("trace: fingerprint mismatch: trace %#x, program %#x (recorded from a different binary)", fp, Fingerprint(p))
	}
	start, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading start: %w", err)
	}
	if start >= uint64(len(p.Instrs)) {
		return nil, fmt.Errorf("trace: start index %d out of range", start)
	}
	return &Reader{r: br, p: p, cur: int32(start)}, nil
}

// Err returns the first decode error encountered (io.EOF when the
// trace is exhausted).
func (t *Reader) Err() error { return t.err }

// Steps returns how many steps have been replayed.
func (t *Reader) Steps() int64 { return t.steps }

// Recorded returns how many of the replayed steps came from the
// recording: all of them while Err is nil, else those before the step
// at which Err was hit. The rest are the sequential fallback.
func (t *Reader) Recorded() int64 {
	if t.err == nil {
		return t.steps
	}
	return t.errAt
}

// decodePair reads the next (run, target) pair. A decode error is
// recorded with the step it was hit at, and leaves run at zero, which
// degrades the reader to sequential execution.
func (t *Reader) decodePair(at int64) {
	run, err := binary.ReadUvarint(t.r)
	if err == nil {
		var tgt uint64
		tgt, err = binary.ReadUvarint(t.r)
		switch {
		case err != nil:
		case tgt == sentinel:
			t.run, t.target = run, -1
			return
		case tgt >= uint64(len(t.p.Instrs)):
			err = fmt.Errorf("trace: target index %d out of range", tgt)
		default:
			t.run, t.target = run, int32(tgt)
			return
		}
	}
	t.err, t.errAt = err, at
}

// Next implements exec.Source. Past the end of the trace (or after a
// decode error) it degrades to sequential execution so a simulator
// driving it past the recorded length fails soft; bound the simulation
// by the recorded length or check Err.
func (t *Reader) Next(st *exec.Step) {
	if t.run == 0 && t.err == nil {
		t.decodePair(t.steps)
	}

	st.Idx = t.cur
	next := t.cur + 1
	st.Taken = false
	if t.run > 0 {
		t.run--
		if t.run == 0 && t.target >= 0 {
			next = t.target
			st.Taken = true
		}
	}
	if int(next) >= len(t.p.Instrs) {
		next = 0
	}
	st.NextIdx = next
	t.cur = next
	t.steps++
}

// NextBatch implements exec.BatchSource by expanding (run, target)
// pairs directly into dst — one decode per taken branch instead of one
// decode *check* per instruction. It always returns len(dst) and
// produces exactly the steps an equivalent series of Next calls would,
// including the fail-soft cases: past the end of the trace (or after a
// decode error) it degrades to sequential execution, and a corrupt
// zero-length run emits one sequential step with its target discarded.
func (t *Reader) NextBatch(dst []exec.Step) int {
	n := len(t.p.Instrs)
	cur := t.cur
	i := 0
	for i < len(dst) {
		if t.run == 0 && t.err == nil {
			t.decodePair(t.steps + int64(i))
		}
		if t.run == 0 {
			// Degraded mode (decode error or EOF) or a corrupt
			// zero-length run: one sequential step, matching Next.
			st := &dst[i]
			st.Idx = cur
			next := cur + 1
			if int(next) >= n {
				next = 0
			}
			st.Taken = false
			st.NextIdx = next
			cur = next
			i++
			continue
		}
		for t.run > 0 && i < len(dst) {
			st := &dst[i]
			st.Idx = cur
			next := cur + 1
			st.Taken = false
			t.run--
			if t.run == 0 && t.target >= 0 {
				next = t.target
				st.Taken = true
			}
			if int(next) >= n {
				next = 0
			}
			st.NextIdx = next
			cur = next
			i++
		}
	}
	t.cur = cur
	t.steps += int64(i)
	return i
}
