package trace

import (
	"bytes"
	"testing"

	"twig/internal/exec"
	"twig/internal/workload"
)

// raggedSizes cycles through batch lengths that hit the interesting
// shapes: single steps, tiny odd runs, and slabs spanning many
// taken-branch runs.
var raggedSizes = []int{1, 7, 2048, 3, 64, 1, 255, 512}

// TestReaderBatchMatchesScalar replays the same recorded trace through
// two readers — one via Next, one via ragged NextBatch calls — and
// requires identical streams, including past the end of the recording
// where both degrade to sequential steps.
func TestReaderBatchMatchesScalar(t *testing.T) {
	params, in := buildApp(t)
	p, err := workload.Build(*params)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	var buf bytes.Buffer
	if err := Record(&buf, p, *in, n); err != nil {
		t.Fatal(err)
	}

	scalar, err := NewReader(bytes.NewReader(buf.Bytes()), p)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewReader(bytes.NewReader(buf.Bytes()), p)
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]exec.Step, 2048)
	var want exec.Step
	pos, total := 0, 0
	for total < n+5000 { // run past EOF into the degraded regime
		m := batched.NextBatch(slab[:raggedSizes[pos%len(raggedSizes)]])
		pos++
		for i := 0; i < m; i++ {
			scalar.Next(&want)
			if slab[i] != want {
				t.Fatalf("step %d (batch offset %d): batch %+v, scalar %+v", total+i, i, slab[i], want)
			}
		}
		total += m
	}
	if scalar.Steps() != batched.Steps() {
		t.Fatalf("step counters diverge: scalar %d, batched %d", scalar.Steps(), batched.Steps())
	}
	// Both readers hit the end of the recording at the same step.
	if scalar.Recorded() != n || batched.Recorded() != n {
		t.Fatalf("recorded steps: scalar %d, batched %d, want %d", scalar.Recorded(), batched.Recorded(), n)
	}
}

// TestReaderBatchTruncated cuts the recording mid-stream at several
// points: the batched reader must degrade exactly like the scalar one.
func TestReaderBatchTruncated(t *testing.T) {
	params, in := buildApp(t)
	p, err := workload.Build(*params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Record(&buf, p, *in, 20_000); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) / 3, len(data)/2 + 1, len(data) - 1} {
		scalar, err := NewReader(bytes.NewReader(data[:cut]), p)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := NewReader(bytes.NewReader(data[:cut]), p)
		if err != nil {
			t.Fatal(err)
		}
		slab := make([]exec.Step, 512)
		var want exec.Step
		for total := 0; total < 30_000; {
			m := batched.NextBatch(slab[:raggedSizes[total%len(raggedSizes)]])
			for i := 0; i < m; i++ {
				scalar.Next(&want)
				if slab[i] != want {
					t.Fatalf("cut %d, step %d: batch %+v, scalar %+v", cut, total+i, slab[i], want)
				}
			}
			total += m
		}
	}
}

// FuzzReaderBatch mutates both the trace bytes and the batch-size
// schedule: for any input the batched reader must never panic, never
// yield out-of-range indexes, and must match the scalar reader step
// for step.
func FuzzReaderBatch(f *testing.F) {
	params := workload.MustParams(workload.Kafka)
	params.Scale = 0.02
	p, err := workload.Build(params)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := Record(&valid, p, params.Input(0), 2000); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes(), []byte{1, 255, 3})
	f.Add(valid.Bytes()[:len(valid.Bytes())/2], []byte{1})
	f.Add([]byte(magic), []byte{8, 8})
	f.Add(bytes.Repeat([]byte{0xFF}, 64), []byte{0, 1, 2})

	f.Fuzz(func(t *testing.T, data []byte, sizes []byte) {
		if len(sizes) == 0 {
			return
		}
		scalar, err := NewReader(bytes.NewReader(data), p)
		if err != nil {
			return // rejected header: fine
		}
		batched, err := NewReader(bytes.NewReader(data), p)
		if err != nil {
			t.Fatalf("second NewReader rejected what the first accepted: %v", err)
		}
		slab := make([]exec.Step, 256)
		var want exec.Step
		total := 0
		for _, s := range sizes {
			m := batched.NextBatch(slab[:int(s%255)+1])
			for i := 0; i < m; i++ {
				scalar.Next(&want)
				if slab[i] != want {
					t.Fatalf("step %d: batch %+v, scalar %+v", total+i, slab[i], want)
				}
				if slab[i].Idx < 0 || int(slab[i].Idx) >= len(p.Instrs) ||
					slab[i].NextIdx < 0 || int(slab[i].NextIdx) >= len(p.Instrs) {
					t.Fatalf("step %d out of range: %+v", total+i, slab[i])
				}
			}
			total += m
			if total > 4096 {
				return
			}
		}
	})
}
