package u64table

import (
	"testing"

	"twig/internal/rng"
)

// TestTableBasics exercises the fixed small-scale corner cases: empty
// lookups, overwrite, the out-of-band zero key, and Clear.
func TestTableBasics(t *testing.T) {
	tb := New[int32](4)
	if tb.Len() != 0 {
		t.Fatalf("new table Len = %d", tb.Len())
	}
	if _, ok := tb.Get(42); ok {
		t.Fatal("Get on empty table hit")
	}
	if tb.Delete(42) {
		t.Fatal("Delete on empty table reported present")
	}

	tb.Put(42, 1)
	tb.Put(42, 2) // overwrite
	if v, ok := tb.Get(42); !ok || v != 2 {
		t.Fatalf("Get(42) = %d, %v; want 2, true", v, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after overwrite; want 1", tb.Len())
	}

	// The zero key is legal.
	tb.Put(0, 7)
	if v, ok := tb.Get(0); !ok || v != 7 {
		t.Fatalf("Get(0) = %d, %v; want 7, true", v, ok)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d with zero key; want 2", tb.Len())
	}
	if !tb.Delete(0) || tb.Delete(0) {
		t.Fatal("zero-key delete sequence wrong")
	}

	tb.Clear()
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after Clear", tb.Len())
	}
	if _, ok := tb.Get(42); ok {
		t.Fatal("Get hit after Clear")
	}
}

// TestTableCollisionChain forces keys into one probe chain and checks
// that backward-shift deletion keeps the chain reachable from both
// ends and in the middle.
func TestTableCollisionChain(t *testing.T) {
	// Find keys that collide in an 8-slot table.
	var chain []uint64
	for k := uint64(1); len(chain) < 5; k++ {
		if hash(k)&7 == 3 {
			chain = append(chain, k)
		}
	}
	for del := 0; del < len(chain); del++ {
		tb := New[uint64](0)
		for _, k := range chain {
			tb.Put(k, k*10)
		}
		if !tb.Delete(chain[del]) {
			t.Fatalf("Delete(chain[%d]) missed", del)
		}
		for i, k := range chain {
			v, ok := tb.Get(k)
			if i == del {
				if ok {
					t.Fatalf("deleted chain[%d] still present", del)
				}
				continue
			}
			if !ok || v != k*10 {
				t.Fatalf("after deleting chain[%d]: Get(chain[%d]) = %d, %v", del, i, v, ok)
			}
		}
	}
}

// refModel is the map-backed reference the property tests compare
// against.
type refModel map[uint64]int32

// applyOp drives one pseudo-random operation against both the table
// and the model and checks agreement. Keys are drawn from a small
// space so inserts, overwrites, deletes of present keys, and deletes
// of absent keys all occur frequently.
func applyOp(t *testing.T, tb *Table[int32], ref refModel, r *rng.Rand, step int) {
	t.Helper()
	key := r.Uint64() % 512 // small key space: heavy collisions and reuse
	switch r.Uint64() % 4 {
	case 0, 1: // insert/overwrite
		val := int32(step)
		tb.Put(key, val)
		ref[key] = val
	case 2: // delete
		got := tb.Delete(key)
		_, want := ref[key]
		if got != want {
			t.Fatalf("step %d: Delete(%d) = %v, model %v", step, key, got, want)
		}
		delete(ref, key)
	case 3: // lookup
		got, ok := tb.Get(key)
		want, wantOK := ref[key]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("step %d: Get(%d) = %d,%v; model %d,%v", step, key, got, ok, want, wantOK)
		}
	}
}

// checkAgainstModel verifies full state agreement: length, every model
// entry present, and Range covering exactly the model.
func checkAgainstModel(t *testing.T, tb *Table[int32], ref refModel) {
	t.Helper()
	if tb.Len() != len(ref) {
		t.Fatalf("Len = %d, model %d", tb.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tb.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v; model %d,true", k, got, ok, want)
		}
	}
	seen := 0
	tb.Range(func(k uint64, v int32) bool {
		want, ok := ref[k]
		if !ok || v != want {
			t.Fatalf("Range yielded (%d,%d); model %d,%v", k, v, want, ok)
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("Range yielded %d entries, model %d", seen, len(ref))
	}
}

// TestTablePropertyVsMap runs long seeded insert/delete/lookup
// sequences against the map reference model, with periodic full-state
// checks (several seeds, several initial capacities — including zero,
// which exercises every growth rehash).
func TestTablePropertyVsMap(t *testing.T) {
	for _, seed := range []uint64{1, 2, 0xdecafbad} {
		for _, capHint := range []int{0, 64} {
			r := rng.New(seed)
			tb := New[int32](capHint)
			ref := refModel{}
			for step := 0; step < 20_000; step++ {
				applyOp(t, tb, ref, r, step)
				if step%2500 == 0 {
					checkAgainstModel(t, tb, ref)
				}
			}
			checkAgainstModel(t, tb, ref)
		}
	}
}

// TestTableDeleteFunc checks predicate deletion, including the
// re-examination of slots refilled by the backward shift.
func TestTableDeleteFunc(t *testing.T) {
	r := rng.New(99)
	tb := New[int32](0)
	ref := refModel{}
	for i := 0; i < 4096; i++ {
		k := r.Uint64() % 4096
		tb.Put(k, int32(i))
		ref[k] = int32(i)
	}
	tb.Put(0, -1)
	ref[0] = -1
	pred := func(k uint64, v int32) bool { return v%3 == 0 }
	tb.DeleteFunc(pred)
	for k, v := range ref {
		if pred(k, v) {
			delete(ref, k)
		}
	}
	checkAgainstModel(t, tb, ref)
}

// TestTableDrainRefill churns the table through full drain/refill
// cycles: with tombstone-free deletion the table must behave (and
// probe) as if freshly built, so a drained table must again miss
// quickly and refill to the same state.
func TestTableDrainRefill(t *testing.T) {
	tb := New[int32](0)
	for cycle := 0; cycle < 10; cycle++ {
		for k := uint64(1); k <= 300; k++ {
			tb.Put(k, int32(k))
		}
		if tb.Len() != 300 {
			t.Fatalf("cycle %d: Len = %d, want 300", cycle, tb.Len())
		}
		for k := uint64(1); k <= 300; k++ {
			if !tb.Delete(k) {
				t.Fatalf("cycle %d: Delete(%d) missed", cycle, k)
			}
		}
		if tb.Len() != 0 {
			t.Fatalf("cycle %d: Len = %d after drain", cycle, tb.Len())
		}
	}
}

// TestSetPropertyVsMap drives the Set against map[uint64]struct{}.
func TestSetPropertyVsMap(t *testing.T) {
	r := rng.New(7)
	s := NewSet(0)
	ref := map[uint64]struct{}{}
	for step := 0; step < 20_000; step++ {
		key := r.Uint64() % 1024
		switch r.Uint64() % 3 {
		case 0:
			_, had := ref[key]
			if added := s.Add(key); added == had {
				t.Fatalf("step %d: Add(%d) = %v, model had=%v", step, key, added, had)
			}
			ref[key] = struct{}{}
		case 1:
			got := s.Delete(key)
			_, want := ref[key]
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v, model %v", step, key, got, want)
			}
			delete(ref, key)
		case 2:
			_, want := ref[key]
			if got := s.Contains(key); got != want {
				t.Fatalf("step %d: Contains(%d) = %v, model %v", step, key, got, want)
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, model %d", step, s.Len(), len(ref))
		}
	}
}

// TestTableDeterministicRange pins that iteration order is a pure
// function of the operation history (no per-process seeding): two
// tables fed the same sequence yield identical Range order.
func TestTableDeterministicRange(t *testing.T) {
	build := func() []uint64 {
		tb := New[int32](0)
		r := rng.New(5)
		for i := 0; i < 1000; i++ {
			tb.Put(r.Uint64()%2048, int32(i))
			if i%3 == 0 {
				tb.Delete(r.Uint64() % 2048)
			}
		}
		var order []uint64
		tb.Range(func(k uint64, _ int32) bool { order = append(order, k); return true })
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// BenchmarkTableChurn measures the steady-state insert+lookup+delete
// cycle the prefetch buffer index performs per staged entry; it must be
// allocation-free.
func BenchmarkTableChurn(b *testing.B) {
	tb := New[int32](1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%700) + 1
		tb.Put(k, int32(i))
		tb.Get(k)
		tb.Delete(k)
	}
}

// BenchmarkMapChurn is the same cycle over map[uint64]int32, for the
// PERFORMANCE.md comparison.
func BenchmarkMapChurn(b *testing.B) {
	m := make(map[uint64]int32, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%700) + 1
		m[k] = int32(i)
		_ = m[k]
		delete(m, k)
	}
}
