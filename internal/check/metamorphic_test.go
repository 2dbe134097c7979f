// Metamorphic properties of the simulator: transformations of a run's
// configuration whose effect on the results is known a priori, checked
// without any golden numbers. Same-seed replay must be byte-identical
// (including the event trace), an epoch split must be additive, and a
// warmup prefix must only relabel instructions, not change what the
// steady-state window executes.
package check_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"twig"
	"twig/internal/core"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// TestMetamorphicTraceIdentical builds the same system twice and
// requires the two Twig runs to agree byte-for-byte: identical public
// Results and identical structured event traces. This pins full-system
// determinism end to end — build, profile, analyze, inject, simulate,
// trace — through the public facade, with verification enabled.
func TestMetamorphicTraceIdentical(t *testing.T) {
	run := func() (twig.Result, []byte) {
		t.Helper()
		var trace bytes.Buffer
		cfg := twig.DefaultConfig()
		cfg.Instructions = matrixWindow
		cfg.Epoch = matrixEpoch
		cfg.TraceWriter = &trace
		cfg.Check = true
		sys, err := twig.NewSystem(twig.Kafka, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run("twig", 1)
		if err != nil {
			t.Fatal(err)
		}
		return res, trace.Bytes()
	}
	r1, t1 := run()
	r2, t2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same seed, different results:\nrun1: %+v\nrun2: %+v", r1, r2)
	}
	if len(t1) == 0 {
		t.Fatal("no trace recorded")
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("same seed, different traces (%d vs %d bytes)", len(t1), len(t2))
	}
}

// TestMetamorphicEpochAdditivity checks through the public facade that
// a run's epoch series partitions its totals: per-epoch instructions,
// cycles, BTB misses, and covered misses must sum to the whole-run
// numbers for every scheme.
func TestMetamorphicEpochAdditivity(t *testing.T) {
	cfg := twig.DefaultConfig()
	cfg.Instructions = matrixWindow
	cfg.Epoch = matrixEpoch
	cfg.Check = true
	sys, err := twig.NewSystem(twig.Drupal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"baseline", "twig", "shotgun"} {
		res, err := sys.Run(name, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Epochs) < 2 {
			t.Fatalf("%s: only %d epochs", name, len(res.Epochs))
		}
		var instrs, misses, covered int64
		var cycles float64
		for _, e := range res.Epochs {
			instrs += e.Instructions
			misses += e.BTBMisses
			covered += e.CoveredMisses
			cycles += e.Cycles
		}
		if instrs != res.Instructions {
			t.Errorf("%s: epoch instructions sum to %d, run says %d", name, instrs, res.Instructions)
		}
		if misses != res.BTBMisses {
			t.Errorf("%s: epoch BTB misses sum to %d, run says %d", name, misses, res.BTBMisses)
		}
		if covered != res.PrefetchUsed {
			t.Errorf("%s: epoch covered misses sum to %d, run says %d", name, covered, res.PrefetchUsed)
		}
		if math.Abs(cycles-res.Cycles) > 1e-6 {
			t.Errorf("%s: epoch cycles sum to %f, run says %f", name, cycles, res.Cycles)
		}
	}
}

// TestMetamorphicWarmupInvariance checks that a warmup prefix only
// moves the measurement boundary: simulating W+N instructions and
// discarding the first W (cfg.Warmup = W) must report the same
// steady-state window as a warmup-free run of W+N instructions whose
// epoch series is used to subtract the prefix. Boundary snapshots are
// taken at instruction-commit granularity in both paths, so the
// windows can skew by at most a commit group — hence a tolerance
// rather than exact equality.
func TestMetamorphicWarmupInvariance(t *testing.T) {
	const (
		prefix = 100_000
		steady = 200_000
	)
	art := artifactsFor(t, workload.Kafka)

	// Full run, epoch length = prefix, so epoch 0 is exactly the
	// prefix and the remaining epochs are the steady-state window.
	full := core.DefaultOptions()
	full.Pipeline.MaxInstructions = prefix + steady
	full.Telemetry.Registry = telemetry.NewRegistry()
	full.Telemetry.EpochLength = prefix
	resFull, err := art.RunScheme("baseline", 0, full)
	if err != nil {
		t.Fatal(err)
	}

	warm := core.DefaultOptions()
	warm.Pipeline.Warmup = prefix
	warm.Pipeline.MaxInstructions = steady
	resWarm, err := art.RunScheme("baseline", 0, warm)
	if err != nil {
		t.Fatal(err)
	}

	if resWarm.Original != steady {
		t.Fatalf("warm run measured %d instructions, want %d", resWarm.Original, steady)
	}
	s := resFull.Series
	missCol := s.Col("btb_direct_misses")
	var tailInstr int64
	var tailMisses float64
	for e := 1; e < s.Len(); e++ {
		tailInstr += s.DeltaInstructions(e)
		tailMisses += s.Delta(e, missCol)
	}
	if tailInstr == 0 || tailMisses == 0 {
		t.Fatalf("degenerate tail window: %d instructions, %.0f misses", tailInstr, tailMisses)
	}
	tailMPKI := tailMisses / float64(tailInstr) * 1000
	warmMPKI := resWarm.MPKI()
	if rel := math.Abs(warmMPKI-tailMPKI) / tailMPKI; rel > 0.01 {
		t.Errorf("steady-state MPKI not warmup-invariant: warm run %.3f vs full-run tail %.3f (%.2f%% apart)",
			warmMPKI, tailMPKI, rel*100)
	}
}
