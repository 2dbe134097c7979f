package pipeline

import (
	"errors"
	"sort"
	"testing"

	"twig/internal/checkpoint"
	"twig/internal/rng"
)

// Tracker geometry for the model tests: first is not a multiple of 64
// and the span leaves the last presence word partly used.
const (
	modelFirst = 0x400000>>6 + 3
	modelLast  = modelFirst + 200
)

// runFlightTape applies an operation tape to a tracker over
// [modelFirst, modelLast] and to a map model in lockstep, and fails on
// any divergence. Each 4-byte record is (opcode, line offset as two
// bytes, value). Lines run from two below the range to one above it,
// so both ends and their outside neighbours are exercised; a put
// outside the range is skipped, since callers never make one.
func runFlightTape(t *testing.T, data []byte) {
	t.Helper()
	f := newFlights(modelFirst, modelLast)
	model := map[uint64]fill{}
	inRange := func(line uint64) bool { return line >= modelFirst && line <= modelLast }
	for step := 0; len(data) >= 4; step++ {
		op, val := data[0], float64(data[3])
		line := modelFirst - 2 + (uint64(data[1])|uint64(data[2])<<8)%(modelLast-modelFirst+4)
		data = data[4:]
		switch op % 6 {
		case 0:
			if inRange(line) {
				v := fill{issue: float64(step), ready: float64(step) + val}
				f.put(line, v)
				model[line] = v
			}
		case 1:
			got, ok := f.take(line)
			want, wantOK := model[line]
			if ok != wantOK || got != want {
				t.Fatalf("step %d: take(%#x) = %v,%v; model %v,%v", step, line, got, ok, want, wantOK)
			}
			delete(model, line)
		case 2:
			if _, want := model[line]; f.contains(line) != want {
				t.Fatalf("step %d: contains(%#x) = %v, model %v", step, line, !want, want)
			}
		case 3:
			cut := float64(step) - val
			f.prune(cut)
			for l, v := range model {
				if v.ready < cut {
					delete(model, l)
				}
			}
		case 4:
			if f.count() != len(model) {
				t.Fatalf("step %d: len = %d, model %d", step, f.count(), len(model))
			}
		case 5:
			checkFlightWalk(t, &f, model)
		}
	}
	checkFlightWalk(t, &f, model)
}

// checkFlightWalk checks the tracker's ascending walk, its count, and
// a save/restore round trip against the model.
func checkFlightWalk(t *testing.T, f *flights, model map[uint64]fill) {
	t.Helper()
	lines := make([]uint64, 0, len(model))
	for l := range model {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	i := 0
	f.each(func(line uint64, v fill) {
		if i >= len(lines) || line != lines[i] || v != model[line] {
			t.Fatalf("walk entry %d: line %#x fill %v; model has %d lines", i, line, v, len(lines))
		}
		i++
	})
	if i != len(lines) || f.count() != len(lines) {
		t.Fatalf("walk visited %d lines, len %d, model %d", i, f.count(), len(lines))
	}

	w := checkpoint.NewWriter()
	f.save(w)
	r, err := checkpoint.Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	g := newFlights(modelFirst, modelLast)
	g.put(modelFirst, fill{ready: 1}) // restore must replace, not merge
	if err := g.restore(r); err != nil {
		t.Fatalf("restoring a saved tracker: %v", err)
	}
	if g.count() != len(lines) {
		t.Fatalf("restored %d lines, want %d", g.count(), len(lines))
	}
	for _, l := range lines {
		if v, ok := g.take(l); !ok || v != model[l] {
			t.Fatalf("restored line %#x = %v,%v; want %v", l, v, ok, model[l])
		}
	}
}

// TestFlightsMatchModel drives the in-flight tracker and a map model
// with seeded random tapes. No workload reaches the pipeline's prune
// (the tracker peaks below 2,800 entries on the nine workloads, under
// the 8,192 threshold), so this and FuzzFlights are its coverage.
func TestFlightsMatchModel(t *testing.T) {
	r := rng.New(0xF11E)
	for trial := 0; trial < 50; trial++ {
		tape := make([]byte, 4*2000)
		for i := range tape {
			tape[i] = byte(r.Uint64())
		}
		// Bias puts in the first half so the tracker fills up.
		for i := 0; i < len(tape)/2; i += 4 {
			if tape[i]%3 == 0 {
				tape[i] = 0
			}
		}
		runFlightTape(t, tape)
	}
}

// FuzzFlights checks any operation tape against the map model.
func FuzzFlights(f *testing.F) {
	rec := func(op byte, off uint16, val byte) []byte { return []byte{op, byte(off), byte(off >> 8), val} }
	var seed []byte
	for _, off := range []uint16{0, 1, 2, 3, 200, 201, 202, 203, 66, 130} {
		seed = append(seed, rec(0, off, 9)...)
	}
	seed = append(seed, rec(5, 0, 0)...)
	seed = append(seed, rec(1, 2, 0)...)
	seed = append(seed, rec(1, 202, 0)...)
	seed = append(seed, rec(3, 0, 0)...)
	seed = append(seed, rec(4, 0, 0)...)
	f.Add(seed)
	f.Add([]byte{0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		runFlightTape(t, data)
	})
}

// TestFlightsRestoreRejects writes in-flight records with a checkpoint
// Writer and requires restore to reject a line outside the covered
// range, or one not above the record before it, with a *FlightError.
func TestFlightsRestoreRejects(t *testing.T) {
	encode := func(lines ...uint64) *checkpoint.Reader {
		w := checkpoint.NewWriter()
		w.Len(len(lines))
		for _, l := range lines {
			w.U64(l)
			w.F64(1)
			w.F64(2)
		}
		r, err := checkpoint.Open(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, tc := range []struct {
		name       string
		lines      []uint64
		record     int
		outOfRange bool
	}{
		{"below range", []uint64{modelFirst - 1}, 0, true},
		{"above range", []uint64{modelFirst, modelLast + 1}, 1, true},
		{"zero line", []uint64{0}, 0, true},
		{"descending", []uint64{modelFirst + 5, modelFirst + 4}, 1, false},
		{"duplicate", []uint64{modelFirst, modelLast, modelLast}, 2, false},
	} {
		f := newFlights(modelFirst, modelLast)
		err := f.restore(encode(tc.lines...))
		var fe *FlightError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: restore returned %v, want a *FlightError", tc.name, err)
		}
		if fe.Record != tc.record || fe.Line != tc.lines[tc.record] || fe.OutOfRange != tc.outOfRange {
			t.Fatalf("%s: got %+v, want record %d line %#x outOfRange %v", tc.name, *fe, tc.record, tc.lines[tc.record], tc.outOfRange)
		}
	}
	f := newFlights(modelFirst, modelLast)
	if err := f.restore(encode(modelFirst, modelFirst+64, modelLast)); err != nil || f.count() != 3 {
		t.Fatalf("restore of both ends and a word boundary: len %d, err %v", f.count(), err)
	}
	// A count larger than the records present is a decode error, not a
	// FlightError.
	w := checkpoint.NewWriter()
	w.Len(2)
	w.U64(modelFirst)
	r, err := checkpoint.Open(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	var fe *FlightError
	if err := f.restore(r); err == nil || errors.As(err, &fe) {
		t.Fatalf("truncated records: restore returned %v", err)
	}
}
