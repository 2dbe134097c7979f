package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

// logSink appends one line per event, with every argument.
type logSink struct{ b *strings.Builder }

func (l logSink) BlockEnter(id int32)                        { fmt.Fprintln(l.b, "block", id) }
func (l logSink) Taken(from, to int32, c float64)            { fmt.Fprintln(l.b, "taken", from, to, c) }
func (l logSink) PrefetchDrop(i int64, c float64, pc uint64) { fmt.Fprintln(l.b, "drop", i, c, pc) }
func (l logSink) EpochMark(n, i int64, c float64)            { fmt.Fprintln(l.b, "epoch", n, i, c) }
func (l logSink) BTBMiss(i int64, c float64, idx int32, pc uint64, kind string) {
	fmt.Fprintln(l.b, "miss", i, c, idx, pc, kind)
}
func (l logSink) Resteer(i int64, c float64, cause string, pc uint64) {
	fmt.Fprintln(l.b, "resteer", i, c, cause, pc)
}
func (l logSink) PrefetchIssue(i int64, c float64, pc uint64, ready float64) {
	fmt.Fprintln(l.b, "issue", i, c, pc, ready)
}
func (l logSink) PrefetchUse(i int64, c float64, pc uint64, late float64) {
	fmt.Fprintln(l.b, "use", i, c, pc, late)
}
func (l logSink) ICacheMiss(i int64, c float64, line uint64, lead, exposed float64) {
	fmt.Fprintln(l.b, "icache", i, c, line, lead, exposed)
}

func emitAll(s Sink) {
	s.BlockEnter(1)
	s.Taken(2, 3, 4.5)
	s.BTBMiss(5, 6.5, 7, 8, "jump")
	s.Resteer(9, 10.5, CauseCond, 11)
	s.PrefetchIssue(12, 13.5, 14, 15.5)
	s.PrefetchDrop(16, 17.5, 18)
	s.PrefetchUse(19, 20.5, 21, 22.5)
	s.ICacheMiss(23, 24.5, 25, 26.5, 27.5)
	s.EpochMark(28, 29, 30.5)
}

// TestTeeDeliversEveryEventToBoth: each side of a tee sees exactly the
// stream it would see alone, and a nil side drops out of the chain.
func TestTeeDeliversEveryEventToBoth(t *testing.T) {
	var alone, a, b strings.Builder
	emitAll(logSink{&alone})
	emitAll(Tee(logSink{&a}, logSink{&b}))
	if a.String() != alone.String() || b.String() != alone.String() {
		t.Fatalf("tee sides saw\n%s\nand\n%s\nwant\n%s", a.String(), b.String(), alone.String())
	}
	only := logSink{&a}
	if Tee(nil, only) != Sink(only) || Tee(only, nil) != Sink(only) || Tee(nil, nil) != nil {
		t.Fatal("Tee with a nil side is not the other side")
	}
}
