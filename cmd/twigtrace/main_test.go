package main

import (
	"bytes"
	"strings"
	"testing"

	"twig/internal/trace"
	"twig/internal/workload"
)

// TestReplayRejectsUnrecordedSteps replays a recording whole, cut
// short, corrupted, and for longer than it is. Only the exact replay
// may report numbers: in the other three the reader falls back to
// sequential execution partway through.
func TestReplayRejectsUnrecordedSteps(t *testing.T) {
	params := workload.MustParams(workload.WordPress)
	p, err := workload.Build(params)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	var buf bytes.Buffer
	if err := trace.Record(&buf, p, params.Input(0), n); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	res, err := replayTrace(bytes.NewReader(full), p, params, "baseline", n, 0, nil)
	if err != nil {
		t.Fatalf("exact-length replay: %v", err)
	}
	if res.Original != n {
		t.Fatalf("exact-length replay simulated %d instructions, want %d", res.Original, n)
	}

	// Ten 0xff bytes hold no varint terminator, so decoding fails
	// wherever the overwritten span starts inside a (run, target) pair.
	corrupt := append([]byte(nil), full...)
	for i := len(corrupt) / 2; i < len(corrupt)/2+10; i++ {
		corrupt[i] = 0xff
	}
	for _, tc := range []struct {
		name string
		data []byte
		n    int64
		want string
	}{
		{"cut", full[:len(full)/2], n, "EOF"},
		{"corrupt", corrupt, n, "overflows"},
		{"over-long", full, n + 5_000, "EOF at step 20000 of 25000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := replayTrace(bytes.NewReader(tc.data), p, params, "baseline", tc.n, 0, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("replay error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
