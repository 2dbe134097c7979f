// Package u64table implements the open-addressed hash containers the
// simulator's per-instruction hot path uses in place of Go's built-in
// map[uint64]: a generic Table keyed by uint64 and a Set of uint64
// keys. Both are flat arrays with linear probing and backward-shift
// (tombstone-free) deletion, power-of-two sized, and allocation-free in
// steady state — the only allocations are the initial arrays and the
// amortized doubling rehash when the load factor crosses 3/4.
//
// Why not map[uint64]V: the runtime map pays for genericity the
// simulator never uses — hash seeding, bucket/group indirection, and a
// write barrier per stored pointerless value — and its delete leaves
// dead slots that keep probe chains long. On the pipeline's
// per-instruction path (the BTB prefetch buffer index, the 3C
// classifier's shadow index) those costs are paid millions of times
// per simulated second. A flat linear-probed table
// keeps the whole probe in one or two cache lines, and backward-shift
// deletion restores the table after every delete to exactly the state
// it would have had if the deleted key had never been inserted — no
// tombstone accumulation, so lookup cost is bounded by live occupancy
// alone regardless of churn (see PERFORMANCE.md).
//
// The zero key is legal and kept out-of-band (key 0 marks an empty
// slot internally). Behaviour is deterministic: no per-process hash
// seed, so identical operation sequences produce identical states —
// a property the simulator's reproducibility tests rely on.
//
// Containers are not safe for concurrent use, matching the simulator's
// single-goroutine-per-run design.
package u64table

// minCapacity is the smallest slot-array size; small enough that empty
// tables stay cheap, large enough that the first grows are rare.
const minCapacity = 8

// hash is the splitmix64 finalizer: a full-avalanche mix so that the
// low bits used for slot selection depend on every input bit. Branch
// PCs and cache-line addresses — the simulator's keys — are clustered
// and stride-patterned, exactly the inputs that make unmixed
// power-of-two indexing degenerate.
func hash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Table maps uint64 keys to values of type V. The zero Table is empty
// and ready to use; New pre-sizes one to avoid growth rehashes.
type Table[V any] struct {
	// keys[i] == 0 marks slot i empty; the real key 0 lives out-of-band
	// in zeroVal/hasZero.
	keys []uint64
	vals []V
	mask uint64
	used int // occupied slots, excluding the zero key

	hasZero bool
	zeroVal V
}

// New returns a Table pre-sized to hold n entries without rehashing.
func New[V any](n int) *Table[V] {
	t := &Table[V]{}
	t.Grow(n)
	return t
}

// Len returns the number of stored keys.
func (t *Table[V]) Len() int {
	if t.hasZero {
		return t.used + 1
	}
	return t.used
}

// Grow ensures the table can hold n entries without rehashing.
func (t *Table[V]) Grow(n int) {
	need := minCapacity
	// Size so that n entries stay under the 3/4 load bound.
	for need*3/4 < n {
		need <<= 1
	}
	if need > len(t.keys) {
		t.rehash(need)
	}
}

// Get returns the value stored for key and whether it is present.
func (t *Table[V]) Get(key uint64) (V, bool) {
	if key == 0 {
		return t.zeroVal, t.hasZero
	}
	if t.used == 0 {
		var zero V
		return zero, false
	}
	i := hash(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			return t.vals[i], true
		}
		if k == 0 {
			var zero V
			return zero, false
		}
		i = (i + 1) & t.mask
	}
}

// Contains reports whether key is present.
func (t *Table[V]) Contains(key uint64) bool {
	_, ok := t.Get(key)
	return ok
}

// Put stores value under key, replacing any previous value.
func (t *Table[V]) Put(key uint64, value V) {
	if key == 0 {
		t.zeroVal = value
		t.hasZero = true
		return
	}
	if (t.used+1)*4 > len(t.keys)*3 {
		n := len(t.keys) * 2
		if n < minCapacity {
			n = minCapacity
		}
		t.rehash(n)
	}
	i := hash(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			t.vals[i] = value
			return
		}
		if k == 0 {
			t.keys[i] = key
			t.vals[i] = value
			t.used++
			return
		}
		i = (i + 1) & t.mask
	}
}

// Delete removes key and reports whether it was present. Deletion is
// tombstone-free: the probe chain is compacted in place (backward
// shift), leaving the table exactly as if key had never been inserted.
func (t *Table[V]) Delete(key uint64) bool {
	if key == 0 {
		was := t.hasZero
		t.hasZero = false
		var zero V
		t.zeroVal = zero
		return was
	}
	if t.used == 0 {
		return false
	}
	i := hash(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			break
		}
		if k == 0 {
			return false
		}
		i = (i + 1) & t.mask
	}
	// Backward-shift: walk the chain after i, moving back every entry
	// whose home position means the new hole would break its probe
	// path, until a natural hole ends the chain.
	j := i
	for {
		j = (j + 1) & t.mask
		k := t.keys[j]
		if k == 0 {
			break
		}
		home := hash(k) & t.mask
		// k may fill the hole at i iff i lies on k's probe path, i.e.
		// the circular distance home→j spans the hole: dist(home, j)
		// >= dist(i, j) (equality is impossible while k != key).
		if ((j - home) & t.mask) >= ((j - i) & t.mask) {
			t.keys[i] = k
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.keys[i] = 0
	var zero V
	t.vals[i] = zero
	t.used--
	return true
}

// DeleteFunc removes every key for which del returns true. del must be
// pure: the compaction performed by interleaved deletes can present an
// entry to del more than once.
func (t *Table[V]) DeleteFunc(del func(key uint64, value V) bool) {
	if t.hasZero && del(0, t.zeroVal) {
		t.Delete(0)
	}
	for i := 0; i < len(t.keys); {
		k := t.keys[i]
		if k == 0 || !del(k, t.vals[i]) {
			i++
			continue
		}
		t.Delete(k)
		// The backward shift may have pulled a later entry into slot i;
		// re-examine it before moving on.
	}
}

// Range calls f for every entry until f returns false. Iteration order
// is slot order: deterministic for a given insertion history, but
// otherwise unspecified. f must not modify the table.
func (t *Table[V]) Range(f func(key uint64, value V) bool) {
	if t.hasZero && !f(0, t.zeroVal) {
		return
	}
	for i, k := range t.keys {
		if k == 0 {
			continue
		}
		if !f(k, t.vals[i]) {
			return
		}
	}
}

// Clear removes all entries, keeping the allocated capacity.
func (t *Table[V]) Clear() {
	clear(t.keys)
	clear(t.vals)
	t.used = 0
	t.hasZero = false
	var zero V
	t.zeroVal = zero
}

// rehash reinserts every entry into a fresh slot array of size n
// (a power of two).
func (t *Table[V]) rehash(n int) {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, n)
	t.vals = make([]V, n)
	t.mask = uint64(n - 1)
	t.used = 0
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := hash(k) & t.mask
		for t.keys[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = k
		t.vals[j] = oldVals[i]
		t.used++
	}
}

// Set is a set of uint64 keys with the same open-addressing scheme as
// Table. The zero Set is empty and ready to use.
type Set struct {
	t Table[struct{}]
}

// NewSet returns a Set pre-sized to hold n keys without rehashing.
func NewSet(n int) *Set {
	s := &Set{}
	s.t.Grow(n)
	return s
}

// Len returns the number of keys in the set.
func (s *Set) Len() int { return s.t.Len() }

// Contains reports whether key is in the set.
func (s *Set) Contains(key uint64) bool { return s.t.Contains(key) }

// Add inserts key and reports whether it was newly added.
func (s *Set) Add(key uint64) bool {
	if s.t.Contains(key) {
		return false
	}
	s.t.Put(key, struct{}{})
	return true
}

// Delete removes key and reports whether it was present.
func (s *Set) Delete(key uint64) bool { return s.t.Delete(key) }
