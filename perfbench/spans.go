package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one interval the benchmark recorded around a call into a
// layer. Parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the benchmark's spans in memory until the run ends. The
// nil tracer records nothing, so timed runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	run   string
	spans []span
}

func newTracer(run string) *tracer { return &tracer{t0: time.Now(), run: run} }

// begin opens a span under parent and returns its index (-1 when off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// total sums the durations of the closed spans named name and counts
// them.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d += s.dur()
			n++
		}
	}
	return d, n
}

// coverage is the length of the union of intervals, clipped to
// [lo, hi], in the intervals' unit.
func coverage(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeFile creates path, with its directory, and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
