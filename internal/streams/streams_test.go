package streams

import "testing"

func TestClassifyEmpty(t *testing.T) {
	c := Classify(nil)
	if c.Total() != 0 {
		t.Fatal("empty sequence classified misses")
	}
	r, n, o := c.Fractions()
	if r != 0 || n != 0 || o != 0 {
		t.Fatal("empty fractions nonzero")
	}
}

func TestClassifyNonRepetitive(t *testing.T) {
	// Every address appears once: everything non-repetitive.
	c := Classify([]uint64{1, 2, 3, 4, 5})
	if c.NonRepetitive != 5 || c.Recurring != 0 || c.New != 0 {
		t.Fatalf("got %+v, want all non-repetitive", c)
	}
}

func TestClassifyRecurringStream(t *testing.T) {
	// The stream 1,2,3 repeats three times: after the first pass the
	// transitions (1,2), (2,3), (3,1) all repeat, so later occurrences
	// are recurring; the first pass counts as new (addresses repeat
	// overall).
	seq := []uint64{1, 2, 3, 1, 2, 3, 1, 2, 3}
	c := Classify(seq)
	if c.Total() != 9 {
		t.Fatal("lost misses")
	}
	if c.Recurring < 6 {
		t.Fatalf("recurring = %d, want >= 6 for a repeating stream", c.Recurring)
	}
	if c.NonRepetitive != 0 {
		t.Fatal("repeating addresses classified non-repetitive")
	}
}

func TestClassifyNewStreams(t *testing.T) {
	// Addresses repeat but never with the same predecessor: new, not
	// recurring.
	seq := []uint64{1, 9, 2, 8, 1, 7, 2, 6, 1, 5, 2}
	c := Classify(seq)
	if c.Recurring != 0 {
		t.Fatalf("recurring = %d, want 0 (no transition repeats)", c.Recurring)
	}
	if c.New == 0 {
		t.Fatal("repeating addresses in fresh contexts must classify as new")
	}
}

func TestFractionsSumToOne(t *testing.T) {
	seq := []uint64{1, 2, 3, 1, 2, 4, 9, 1, 2, 3, 5}
	c := Classify(seq)
	r, n, o := c.Fractions()
	if s := r + n + o; s < 0.999 || s > 1.001 {
		t.Fatalf("fractions sum to %f", s)
	}
}

func TestRecorder(t *testing.T) {
	rec := NewRecorder()
	rec.BTBMiss(0, 0, 1, 10, "jump")
	rec.BTBMiss(1, 1, 2, 20, "cond")
	rec.BTBMiss(2, 2, 1, 10, "jump")
	got := rec.Misses()
	want := []uint64{10, 20, 10}
	if len(got) != len(want) {
		t.Fatalf("recorded %d misses, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("miss %d = %d, want %d", i, got[i], want[i])
		}
	}
}
