package profile

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestProfileRoundTrip(t *testing.T) {
	p := loopProgram(t)
	prof, _ := collect(t, p, 1, 30_000)

	var buf bytes.Buffer
	if err := prof.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got.Instructions != prof.Instructions {
		t.Fatal("instructions differ")
	}
	if len(got.BlockExecs) != len(prof.BlockExecs) {
		t.Fatal("block exec table size differs")
	}
	for i := range prof.BlockExecs {
		if got.BlockExecs[i] != prof.BlockExecs[i] {
			t.Fatalf("BlockExecs[%d] differs", i)
		}
	}
	if len(got.MissCounts) != len(prof.MissCounts) {
		t.Fatal("miss count map size differs")
	}
	for b, c := range prof.MissCounts {
		if got.MissCounts[b] != c {
			t.Fatalf("MissCounts[%d] differs", b)
		}
	}
	if len(got.Samples) != len(prof.Samples) || len(got.Log) != len(prof.Log) {
		t.Fatal("sample or log record count differs")
	}
	// TWIGPRF2 stores float bits, so cycles come back exactly.
	for k := range prof.Log {
		a, b := prof.Log[k], got.Log[k]
		if a.FromBlock != b.FromBlock || a.ToBlock != b.ToBlock || math.Float64bits(a.Cycle) != math.Float64bits(b.Cycle) {
			t.Fatalf("log record %d differs: %+v vs %+v", k, a, b)
		}
	}
	for i := range prof.Samples {
		a, b := prof.Samples[i], got.Samples[i]
		if a.Branch != b.Branch || math.Float64bits(a.MissCycle) != math.Float64bits(b.MissCycle) ||
			len(prof.Window(i)) != len(got.Window(i)) {
			t.Fatalf("sample %d header differs", i)
		}
		for j, ra := range prof.Window(i) {
			if rb := got.Window(i)[j]; ra != rb {
				t.Fatalf("sample %d record %d differs: %+v vs %+v", i, j, ra, rb)
			}
		}
	}
}

func TestProfileLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTAPROFILE..."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated valid prefix.
	p := loopProgram(t)
	prof, _ := collect(t, p, 1, 5_000)
	var buf bytes.Buffer
	if err := prof.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated profile accepted")
	}
}

// TestLoadRejectsWindowsOutsideLog hand-places windows that overrun
// the log, and counts no real profile has: Load must return an error,
// never a profile whose Window would panic.
func TestLoadRejectsWindowsOutsideLog(t *testing.T) {
	p := loopProgram(t)
	prof, _ := collect(t, p, 1, 5_000)
	last := len(prof.Samples) - 1
	for _, tc := range []struct {
		name   string
		mangle func(*Profile)
	}{
		{"Len > LBRDepth", func(q *Profile) { q.Samples[last].Len = LBRDepth + 1 }},
		{"Len > End", func(q *Profile) { q.Samples[0].End, q.Samples[0].Len = 2, 3 }},
		{"End > len(Log)", func(q *Profile) { q.Samples[last].End = int32(len(q.Log)) + 1 }},
		{"negative End", func(q *Profile) { q.Samples[0].End, q.Samples[0].Len = -1, 0 }},
		{"log cut short", func(q *Profile) { q.Log = q.Log[:len(q.Log)-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := *prof
			q.Samples = append([]Sample(nil), prof.Samples...)
			tc.mangle(&q)
			var buf bytes.Buffer
			if err := q.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&buf); err == nil {
				t.Fatal("window outside the log accepted")
			}
		})
	}
	// A count past the implausibility cap fails before any record is
	// read, and a plausible count on a short input fails without
	// allocating what it claims (4 GiB of records for "short log").
	for _, tc := range []struct {
		name   string
		counts []uint64 // instructions, then the block, miss-branch, log-record and sample counts
	}{
		{"blocks", []uint64{0, maxCount + 1}},
		{"miss branches", []uint64{0, 0, maxCount + 1}},
		{"log records", []uint64{0, 0, 0, maxCount + 1}},
		{"samples", []uint64{0, 0, 0, 0, maxCount + 1}},
		{"short log", []uint64{0, 0, 0, maxCount}},
	} {
		t.Run("count/"+tc.name, func(t *testing.T) {
			buf := []byte(profileMagic)
			for _, c := range tc.counts {
				buf = binary.AppendUvarint(buf, c)
			}
			if _, err := Load(bytes.NewReader(buf)); err == nil {
				t.Fatal("implausible or truncated count accepted")
			}
		})
	}
}

func TestSavedProfileDrivesAnalysis(t *testing.T) {
	// A saved+loaded profile must be usable by the analysis exactly like
	// the in-memory one — verified indirectly by comparing field
	// equality above; here check compactness too.
	p := loopProgram(t)
	prof, _ := collect(t, p, 1, 30_000)
	var buf bytes.Buffer
	if err := prof.Save(&buf); err != nil {
		t.Fatal(err)
	}
	perSample := float64(buf.Len()) / float64(len(prof.Samples)+1)
	// 32 records x ~(2 varints + 8B float) plus header: generous cap.
	if perSample > 1024 {
		t.Fatalf("serialized profile uses %.0f bytes/sample", perSample)
	}
}
