// Package bpu models the non-BTB parts of the branch prediction unit
// from the paper's Table 1: the 64KB TAGE-SC-L direction predictor, the
// 32-entry return address stack, and the 4096-entry 4-way indirect
// branch target buffer.
//
// The direction predictor is modeled statistically rather than
// structurally: TAGE-SC-L's accuracy on data-center codes is a
// well-characterized ~0.4-0.7 mispredicts per kilo-instruction, and
// Twig does not interact with direction prediction at all — the paper
// holds the direction predictor constant across all configurations.
// A deterministic hash of (branch PC, dynamic branch ordinal) decides
// each conditional's mispredict, which keeps mispredict events
// *identical* between a baseline binary and its Twig-optimized binary
// (injected prefetch instructions are not branches and do not perturb
// the ordinal), so speedup comparisons isolate the BTB effect.
package bpu

// DirectionPredictor decides conditional mispredicts deterministically.
type DirectionPredictor struct {
	// rate is the mispredict probability threshold scaled to 2^64.
	threshold uint64
	ordinal   uint64
}

// NewDirectionPredictor returns a predictor with the given mispredict
// rate in [0,1].
func NewDirectionPredictor(rate float64) *DirectionPredictor {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &DirectionPredictor{threshold: uint64(rate * (1 << 63) * 2)}
}

// Mispredicted reports whether this dynamic instance of the conditional
// branch at pc is mispredicted. Each call consumes one branch ordinal.
func (d *DirectionPredictor) Mispredicted(pc uint64) bool {
	d.ordinal++
	x := pc ^ (d.ordinal * 0x9e3779b97f4a7c15)
	// splitmix64 finalizer for a well-mixed deterministic coin.
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return x < d.threshold
}

// RAS is a fixed-depth circular return address stack. Pushing past the
// capacity overwrites the oldest entry, so deep call chains cause
// return mispredicts when the overwritten entries are popped — the real
// failure mode of hardware return stacks.
type RAS struct {
	buf   []uint64
	top   int // index of the next push slot
	depth int // live entries, capped at len(buf)

	// Mispredicts counts returns whose predicted address was wrong
	// (stack underflow or overwrite).
	Mispredicts int64
	// Returns counts predictions made.
	Returns int64
}

// NewRAS returns a stack with the given capacity (Table 1: 32 entries;
// Shotgun's configuration uses 1536).
func NewRAS(capacity int) *RAS {
	if capacity < 1 {
		capacity = 1
	}
	return &RAS{buf: make([]uint64, capacity)}
}

// Push records a return address at a call.
func (r *RAS) Push(addr uint64) {
	r.buf[r.top] = addr
	r.top = (r.top + 1) % len(r.buf)
	if r.depth < len(r.buf) {
		r.depth++
	}
}

// PredictReturn pops a prediction and compares it with the actual
// return address, returning whether the prediction was correct.
func (r *RAS) PredictReturn(actual uint64) bool {
	r.Returns++
	if r.depth == 0 {
		r.Mispredicts++
		return false
	}
	r.top = (r.top - 1 + len(r.buf)) % len(r.buf)
	r.depth--
	if r.buf[r.top] != actual {
		r.Mispredicts++
		return false
	}
	return true
}

// Depth returns the number of live entries, in [0, Capacity].
func (r *RAS) Depth() int { return r.depth }

// Capacity returns the stack's entry capacity.
func (r *RAS) Capacity() int { return len(r.buf) }

// IBTB is the indirect branch target buffer: a set-associative LRU
// cache of last-seen targets keyed by indirect branch PC.
type IBTB struct {
	setMask uint64
	ways    int
	pcs     []uint64
	targets []uint64
	stamp   []uint64
	clock   uint64

	// Lookups and Mispredicts count indirect predictions and failures
	// (miss, or stale target).
	Lookups, Mispredicts int64
}

const invalidPC = ^uint64(0)

// NewIBTB builds an indirect BTB (Table 1: 4096 entries, 4-way).
func NewIBTB(entries, ways int) *IBTB {
	sets := entries / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("bpu: IBTB sets must be a positive power of two")
	}
	ib := &IBTB{
		setMask: uint64(sets - 1),
		ways:    ways,
		pcs:     make([]uint64, entries),
		targets: make([]uint64, entries),
		stamp:   make([]uint64, entries),
	}
	for i := range ib.pcs {
		ib.pcs[i] = invalidPC
	}
	return ib
}

// Predict looks up pc, compares the stored target against actual,
// updates the entry to the actual target, and reports whether the
// prediction was correct.
func (ib *IBTB) Predict(pc, actual uint64) bool {
	ib.Lookups++
	base := int(pc&ib.setMask) * ib.ways
	for w := 0; w < ib.ways; w++ {
		if ib.pcs[base+w] == pc {
			ib.clock++
			ib.stamp[base+w] = ib.clock
			ok := ib.targets[base+w] == actual
			ib.targets[base+w] = actual
			if !ok {
				ib.Mispredicts++
			}
			return ok
		}
	}
	// Miss: allocate.
	victim := base
	for w := 0; w < ib.ways; w++ {
		if ib.pcs[base+w] == invalidPC {
			victim = base + w
			break
		}
		if ib.stamp[base+w] < ib.stamp[victim] {
			victim = base + w
		}
	}
	ib.clock++
	ib.pcs[victim] = pc
	ib.targets[victim] = actual
	ib.stamp[victim] = ib.clock
	ib.Mispredicts++
	return false
}
