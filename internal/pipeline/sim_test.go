package pipeline

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"twig/internal/btb"
	"twig/internal/exec"
	"twig/internal/prefetcher"
	"twig/internal/rng"
)

// resumeSchemes builds one fresh scheme per named configuration; each
// test run needs its own instances since schemes carry run state.
func resumeSchemes() map[string]func() prefetcher.Scheme {
	return map[string]func() prefetcher.Scheme{
		"baseline":   func() prefetcher.Scheme { return prefetcher.NewBaseline(btb.DefaultConfig(), 0, false) },
		"twig":       func() prefetcher.Scheme { return prefetcher.NewBaseline(btb.DefaultConfig(), 64, false) },
		"ideal":      func() prefetcher.Scheme { return prefetcher.NewIdeal() },
		"shotgun":    func() prefetcher.Scheme { return prefetcher.NewShotgun(prefetcher.DefaultShotgunConfig()) },
		"confluence": func() prefetcher.Scheme { return prefetcher.NewConfluence(prefetcher.DefaultConfluenceConfig()) },
		"hierarchy":  func() prefetcher.Scheme { return prefetcher.NewHierarchy(btb.DefaultHierarchyConfig()) },
		"shadow":     func() prefetcher.Scheme { return prefetcher.NewShadow(prefetcher.DefaultShadowConfig()) },
	}
}

// TestResumeEqualsContinuous is the checkpoint correctness backbone:
// for every scheme, splitting a run at an arbitrary instruction
// boundary — checkpoint, serialize, restore into a fresh simulator —
// must produce a Result bit-identical to the uninterrupted run.
func TestResumeEqualsContinuous(t *testing.T) {
	p := simpleProgram(t)
	in := exec.Input{Seed: 7}
	const n, warm = 40_000, 10_000

	for name, mk := range resumeSchemes() {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(n)
			cfg.Warmup = warm
			cfg.UseTAGE = name == "shotgun" // cover the TAGE path too
			cfg.Scheme = mk()
			want, err := Run(p, in, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Split at several points, including inside warmup and at
			// the exact warmup boundary.
			for _, split := range []int64{1, warm / 2, warm, warm + 1, n + warm/2, n + warm - 1} {
				cfg1 := cfg
				cfg1.Scheme = mk()
				src1, err := exec.New(p, in)
				if err != nil {
					t.Fatal(err)
				}
				sim, err := NewSim(p, src1, cfg1)
				if err != nil {
					t.Fatal(err)
				}
				if err := sim.RunTo(split); err != nil {
					t.Fatal(err)
				}
				data, err := sim.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}

				cfg2 := cfg
				cfg2.Scheme = mk()
				src2, err := exec.New(p, in)
				if err != nil {
					t.Fatal(err)
				}
				sim2, err := ResumeSim(p, src2, cfg2, data)
				if err != nil {
					t.Fatalf("split %d: resume: %v", split, err)
				}
				if got := sim2.Instructions(); got != split {
					t.Fatalf("split %d: resumed at %d instructions", split, got)
				}
				if err := sim2.RunTo(n + warm); err != nil {
					t.Fatal(err)
				}
				got, err := sim2.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("split %d: resumed result differs from continuous run:\n got %+v\nwant %+v", split, got, want)
				}
			}
		})
	}
}

// TestCheckpointRoundTripRandomized is the codec property test over
// real simulator states: for random schemes, seeds and split points,
// checkpoint → restore → checkpoint must reproduce the identical
// bytes (serialization is canonical and restore is lossless), and
// corrupted checkpoints must be rejected or restored cleanly — never
// panic.
func TestCheckpointRoundTripRandomized(t *testing.T) {
	p := simpleProgram(t)
	schemes := resumeSchemes()
	names := make([]string, 0, len(schemes))
	for name := range schemes {
		names = append(names, name)
	}
	sort.Strings(names)

	r := rng.New(0xC0FFEE)
	for trial := 0; trial < 12; trial++ {
		name := names[trial%len(names)]
		in := exec.Input{Seed: r.Uint64()}
		split := int64(1 + r.Intn(30_000))
		cfg := testConfig(40_000)
		cfg.Warmup = int64(r.Intn(10_000))
		cfg.UseTAGE = trial%2 == 0
		cfg.Scheme = schemes[name]()

		src, err := exec.New(p, in)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSim(p, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunTo(split); err != nil {
			t.Fatal(err)
		}
		data, err := sim.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}

		cfg2 := cfg
		cfg2.Scheme = schemes[name]()
		src2, err := exec.New(p, in)
		if err != nil {
			t.Fatal(err)
		}
		sim2, err := ResumeSim(p, src2, cfg2, data)
		if err != nil {
			t.Fatalf("trial %d (%s, split %d): %v", trial, name, split, err)
		}
		data2, err := sim2.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("trial %d (%s, split %d): re-checkpoint after restore differs", trial, name, split)
		}

		// Single-byte corruption anywhere must not panic: the CRC (or
		// a structural validator, if the CRC is what got flipped)
		// turns it into an error.
		bad := bytes.Clone(data)
		pos := r.Intn(len(bad))
		bad[pos] ^= 1 << uint(r.Intn(8))
		cfg3 := cfg
		cfg3.Scheme = schemes[name]()
		src3, err := exec.New(p, in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeSim(p, src3, cfg3, bad); err == nil {
			t.Fatalf("trial %d: corrupted checkpoint (byte %d) accepted", trial, pos)
		}
	}
}

// TestResumeRejectsMismatchedConfig pins the fingerprint gate: a
// checkpoint restored under a different configuration or scheme is
// rejected before any state is touched.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	p := simpleProgram(t)
	in := exec.Input{Seed: 9}
	cfg := testConfig(10_000)
	cfg.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	src, err := exec.New(p, in)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(p, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunTo(5_000); err != nil {
		t.Fatal(err)
	}
	data, err := sim.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	resume := func(cfg Config) error {
		src, err := exec.New(p, in)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ResumeSim(p, src, cfg, data)
		return err
	}

	bad := cfg
	bad.Scheme = prefetcher.NewIdeal()
	if err := resume(bad); err == nil {
		t.Fatal("resume with different scheme accepted")
	}
	bad = cfg
	bad.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	bad.FTQSize++
	if err := resume(bad); err == nil {
		t.Fatal("resume with different FTQ size accepted")
	}
	good := cfg
	good.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	if err := resume(good); err != nil {
		t.Fatalf("resume with identical config rejected: %v", err)
	}
}

// TestFastForwardAdvancesState pins the functional-warmup contract:
// fast-forward consumes the stream and trains the structures without
// advancing the clocks.
func TestFastForwardAdvancesState(t *testing.T) {
	p := simpleProgram(t)
	in := exec.Input{Seed: 11}
	cfg := testConfig(100_000)
	cfg.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	src, err := exec.New(p, in)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(p, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.FastForward(50_000); err != nil {
		t.Fatal(err)
	}
	c := sim.Counters()
	if c.Instructions != 50_000 {
		t.Fatalf("fast-forwarded %d instructions, want 50000", c.Instructions)
	}
	if c.Cycles != 0 {
		t.Fatalf("fast-forward advanced the retire clock to %f", c.Cycles)
	}
	if c.DirectMisses == 0 || c.L1Misses == 0 {
		t.Fatal("fast-forward did not exercise BTB and cache state")
	}
	// Detailed simulation resumes from the warmed state.
	if err := sim.RunTo(60_000); err != nil {
		t.Fatal(err)
	}
	d := sim.Counters()
	if d.Cycles <= 0 {
		t.Fatal("detailed interval after fast-forward simulated no cycles")
	}
	if d.Instructions != 60_000 {
		t.Fatalf("position %d after detailed interval, want 60000", d.Instructions)
	}
}

// TestCheckpointFingerprintGolden pins the configuration fingerprint
// every checkpoint carries. Cached checkpoints are addressed by
// runner.HashCheckpoint, whose key does not include this fingerprint,
// so a change that moved it silently (say, by reshaping Config) would
// leave warm-store keys valid while ResumeSim rejected every checkpoint
// behind them. The constant was generated before the observer channels
// were merged into one sink.
func TestCheckpointFingerprintGolden(t *testing.T) {
	p := simpleProgram(t)
	src, err := exec.New(p, exec.Input{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	sim, err := NewSim(p, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const want = 0x99bb2df52a728077
	if got := sim.s.fingerprint(); got != want {
		t.Fatalf("fingerprint %#x, want %#x", got, uint64(want))
	}
}
