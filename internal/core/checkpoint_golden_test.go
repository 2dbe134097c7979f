package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"twig/internal/workload"
)

// TestCheckpointGolden pins the bytes of a mid-run checkpoint for every
// table scheme on verilator. TestResumeEqualsContinuous only compares a
// resumed run with a continuous one of the same build, and the trace
// golden sees none of the cache LRU stamps or the in-flight fill state,
// so a change to how either is stored or walked could move every
// checkpoint without failing anything else. Checkpoints outlive the
// process that took them, so their bytes are a format. Each SHA-256
// and length was recorded before the in-flight fill table became a
// line-indexed tracker. A deliberate change to the checkpoint layout,
// the workload generator or the timing model moves these constants;
// regenerate them and say why in the change.
func TestCheckpointGolden(t *testing.T) {
	opts := smallOpts()
	opts.Pipeline.Warmup = 20_000
	art, err := BuildAndOptimize(workload.Verilator, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]struct {
		sha  string
		size int
	}{
		"baseline":   {"9f1820272f97aa91a2f10767383676a5b3ef01f0d64211ddf73787bc590ff04a", 3205162},
		"ideal":      {"a259bd24199a2ee63ff05b2265a7c7a51d3d708a752f6b4520f43f9344f00965", 3000250},
		"twig":       {"19f024bff9dadc75ba72362807e0129fac1eb1dedbc3b9c5a61f25e529287a14", 3209746},
		"shotgun":    {"5c67e1e9beb8e0ecc7f19a09482d3111c402334d398eb6fda8703a3c1273dca3", 3197295},
		"confluence": {"e1cb20c21f66ae2e4b1eab17177db565afc33fe5a791034877b5d0cd0c595b62", 3231374},
		"hierarchy":  {"74937e970790dde17ba6ead3143964740370298a21dcea03fe2c75a894ec44a4", 4034646},
		"shadow":     {"e537da320c419d90cfc77dd17ebd520b05eb558521418d2921c92fa5f1346dca", 3260450},
	}
	for _, name := range SchemeNames {
		data, err := art.CheckpointScheme(name, 0, opts, 80_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(data)
		got := hex.EncodeToString(sum[:])
		want, ok := golden[name]
		if !ok {
			t.Fatalf("%s: no golden for this table scheme", name)
		}
		if got != want.sha || len(data) != want.size {
			t.Errorf("%s: checkpoint is %d bytes with SHA-256 %s, want %d bytes with %s", name, len(data), got, want.size, want.sha)
		}
	}
}
