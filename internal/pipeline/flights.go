package pipeline

import (
	"fmt"
	"math/bits"

	"twig/internal/cache"
	"twig/internal/checkpoint"
	"twig/internal/program"
)

// fill records an in-flight cache-line prefetch.
type fill struct {
	issue, ready float64
}

// flights tracks the in-flight next-line fills by line: a presence
// bitset and a fill per line over every line the next-line prefetcher
// can fill, so each operation is an index, not a hash probe. A run
// fills only lines up to NextLinePrefetch past a fetched line of the
// text, so the program bounds the range: at most 13,858 lines (1.7 KB
// of bits) for the nine workloads. Lines outside the range are never
// present.
type flights struct {
	first   uint64   // line of bit 0
	present []uint64 // present[i/64] bit i%64: line first+i is in flight
	fills   []fill   // fills[i] is line first+i's fill while present
	n       int      // present lines
}

// newFlights covers lines [first, last].
func newFlights(first, last uint64) flights {
	lines := last - first + 1
	return flights{
		first:   first,
		present: make([]uint64, (lines+63)/64),
		fills:   make([]fill, lines),
	}
}

// nextLineFlights covers every line a next-line prefetcher of the given
// degree can fill in a run of p: each fetched line lies in p's text,
// and the prefetcher fills up to degree lines past it.
func nextLineFlights(p *program.Program, degree int) flights {
	if degree <= 0 || len(p.Instrs) == 0 {
		return flights{}
	}
	return newFlights(cache.LineOf(p.BaseAddr), cache.LineOf(p.EndPC()-1)+uint64(degree))
}

// count returns the number of lines in flight.
func (f *flights) count() int { return f.n }

// contains reports whether line is in flight.
func (f *flights) contains(line uint64) bool {
	i := line - f.first
	return i < uint64(len(f.fills)) && f.present[i>>6]&(1<<(i&63)) != 0
}

// take removes line and returns its fill, if it was in flight.
func (f *flights) take(line uint64) (fill, bool) {
	i := line - f.first
	if i >= uint64(len(f.fills)) {
		return fill{}, false
	}
	w, b := &f.present[i>>6], uint64(1)<<(i&63)
	if *w&b == 0 {
		return fill{}, false
	}
	*w &^= b
	f.n--
	return f.fills[i], true
}

// put records v as line's fill, replacing any fill in flight. line must
// lie in the covered range.
func (f *flights) put(line uint64, v fill) {
	i := line - f.first
	f.fills[i] = v
	if w, b := &f.present[i>>6], uint64(1)<<(i&63); *w&b == 0 {
		*w |= b
		f.n++
	}
}

// prune drops every fill that completed before cut.
func (f *flights) prune(cut float64) {
	for wi, w := range f.present {
		for m := w; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if f.fills[wi<<6+b].ready < cut {
				f.present[wi] &^= 1 << b
				f.n--
			}
		}
	}
}

// each calls fn for every line in flight, in ascending line order.
func (f *flights) each(fn func(line uint64, v fill)) {
	for wi, w := range f.present {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			fn(f.first+uint64(i), f.fills[i])
		}
	}
}

// save writes the fills in ascending line order, so identical states
// always produce identical bytes.
func (f *flights) save(w *checkpoint.Writer) {
	w.Len(f.n)
	f.each(func(line uint64, v fill) {
		w.U64(line)
		w.F64(v.issue)
		w.F64(v.ready)
	})
}

// FlightError is the error ResumeSim returns for an in-flight fill
// record no run could have written: its line lies outside the lines the
// next-line prefetcher fills for the program, or is not above the line
// of the record before it.
type FlightError struct {
	Record     int    // index of the offending record
	Line       uint64 // its line address
	OutOfRange bool   // outside the covered lines; otherwise out of order
}

// Error names the record, its line and which rule it breaks.
func (e *FlightError) Error() string {
	if e.OutOfRange {
		return fmt.Sprintf("pipeline: checkpoint in-flight fill %d: line %#x outside the next-line range", e.Record, e.Line)
	}
	return fmt.Sprintf("pipeline: checkpoint in-flight fill %d: line %#x not above the record before it", e.Record, e.Line)
}

// restore replaces the tracker's contents with the fills save wrote. A
// record outside the covered range or out of ascending order is a
// *FlightError.
func (f *flights) restore(r *checkpoint.Reader) error {
	clear(f.present)
	f.n = 0
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	var prev uint64
	for i := 0; i < n; i++ {
		line := r.U64()
		v := fill{issue: r.F64(), ready: r.F64()}
		if err := r.Err(); err != nil {
			return err
		}
		if line-f.first >= uint64(len(f.fills)) {
			return &FlightError{Record: i, Line: line, OutOfRange: true}
		}
		if i > 0 && line <= prev {
			return &FlightError{Record: i, Line: line}
		}
		prev = line
		f.put(line, v)
	}
	return nil
}
