package main

import "runtime"

// retainedPeak tracks the largest heap still live after a full
// collection, measured at operation boundaries outside the timed
// phases. A peak sampled during a call would depend on when the
// collector happened to run, which moved it by up to 30% between runs
// on a 2-vCPU Xeon; the heap live after forced collections repeats.
type retainedPeak struct{ mb float64 }

func (p *retainedPeak) measure() {
	// The second collection frees what the first moved into sync.Pool
	// victim caches, such as encoding buffers sized to a profile entry.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.mb = max(p.mb, float64(m.HeapAlloc)/(1<<20))
}
