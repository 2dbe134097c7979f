package main

import (
	"fmt"
	"time"
)

// The timed runs report CPU time at a fixed reference speed. On a
// shared 2-vCPU Xeon the thread CPU time of the same work moves by
// ±10% or more between runs minutes apart, with little steal: other
// tenants contend for the core and its caches, and a CPU clock counts
// the slower cycles too. A fixed kernel timed between the measured
// calls slows by nearly the same factor, so each timed phase divides
// its CPU time by the kernel's mean slowdown over that phase. Over four
// runs of the schemes matrix the raw CPU time spread ±10% and the
// scaled time ±3%.
//
// The kernel is a miniature of the simulator's own hot loop (a
// set-associative BTB with LRU, a table of 2-bit counters and a
// direct-mapped tag array, fed a branchy synthetic stream), so the
// contention that slows the simulator slows it alike. It lives in the
// benchmark and is frozen: no change to the program moves it, and
// changing it or gaugeRef re-bases every figure, which makes it a
// benchmark change.

// gaugeRef is one sample's thread CPU time on the reference machine
// (2-vCPU Intel Xeon, family 6 model 207, quiet host); a phase whose
// samples took this long on average reports its CPU time unscaled.
const gaugeRef = 4 * time.Millisecond

const (
	gaugeWarmSteps = 10_000 // untimed steps that bring the tables into cache
	gaugeSteps     = 80_000 // timed steps of one sample
)

// gauge runs the reference kernel.
type gauge struct {
	btbTag [2048][4]uint32
	btbAge [2048][4]uint8
	ctr    [1 << 16]uint8
	lines  [512]uint32
	far    [1 << 16]uint32
	sink   uint64
}

func newGauge() *gauge {
	g := &gauge{}
	x := uint32(2463534242)
	for i := range g.far {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		g.far[i] = x
	}
	return g
}

// pace is the kernel's timing over one phase.
type pace struct {
	spent time.Duration
	n     int
}

// sample times the kernel once on the calling thread's CPU clock and
// adds it to p.
func (g *gauge) sample(p *pace) {
	g.sink += g.steps(gaugeWarmSteps)
	start := startThread()
	g.sink += g.steps(gaugeSteps)
	p.spent += start.elapsed()
	p.n++
}

// meter times one phase's calls on the calling thread's CPU clock and
// samples the gauge after each, outside the timed intervals, so the
// phase's CPU time and its pace cover the same stretch of time.
type meter struct {
	g *gauge
	// after is how many gauge samples follow each call.
	after int
	cpu   time.Duration
	pace  pace
}

// time runs f, adds its CPU time to the phase and returns it.
func (m *meter) time(f func()) time.Duration {
	start := startThread()
	f()
	d := start.elapsed()
	m.cpu += d
	for i := 0; i < m.after; i++ {
		m.g.sample(&m.pace)
	}
	return d
}

// scaled is the phase's CPU time at the reference speed.
func (m *meter) scaled() time.Duration { return m.pace.scale(m.cpu) }

// factor is the phase's mean sample time over gaugeRef: above 1 when
// the host ran slower than the reference machine.
func (p pace) factor() float64 {
	if p.n == 0 {
		return 1
	}
	return float64(p.spent) / float64(p.n) / float64(gaugeRef)
}

// scale converts a CPU time measured during the phase to the
// reference speed.
func (p pace) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) / p.factor())
}

// String reports the factor with its base.
func (p pace) String() string {
	if p.n == 0 {
		return "no gauge samples"
	}
	return fmt.Sprintf("gauge %.3f× reference (%d samples, mean %.3f ms vs %.3f ms)",
		p.factor(), p.n, ms(p.spent)/float64(p.n), ms(gaugeRef))
}

// merge returns the pace over both phases' samples.
func (p pace) merge(q pace) pace { return pace{p.spent + q.spent, p.n + q.n} }

// steps runs n steps of the kernel and returns a value that depends on
// all of them, so the compiler cannot drop the work.
func (g *gauge) steps(n int) uint64 {
	x := uint64(88172645463325252)
	var hits, misses uint64
	pc := uint32(0)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Mostly sequential control flow with a far jump every 16 steps.
		if x&15 == 0 {
			pc = g.far[uint32(x>>20)&(1<<16-1)]
		} else {
			pc += 4 + uint32(x>>60)*4
		}
		set, tag := (pc>>2)&2047, pc>>13
		way := -1
		for w := range g.btbTag[set] {
			if g.btbTag[set][w] == tag {
				way = w
				break
			}
		}
		if way >= 0 {
			hits++
			g.btbAge[set][way] = 0
		} else {
			misses++
			victim, oldest := 0, uint8(0)
			for w, age := range g.btbAge[set] {
				if age >= oldest {
					victim, oldest = w, age
				}
				if age < 255 {
					g.btbAge[set][w]++
				}
			}
			g.btbTag[set][victim] = tag
			g.btbAge[set][victim] = 0
		}
		c := &g.ctr[(pc^uint32(x>>40))&(1<<16-1)]
		taken := x&(1<<33) != 0
		if (*c >= 2) != taken {
			misses++
		}
		if taken && *c < 3 {
			*c++
		} else if !taken && *c > 0 {
			*c--
		}
		line := pc >> 6
		if g.lines[line&511] != line {
			g.lines[line&511] = line
			misses++
		}
	}
	return hits*31 + misses
}
