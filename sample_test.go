package twig_test

import (
	"reflect"
	"testing"

	"twig"
)

// TestSampledAndCheckpointFacade exercises the public sampling and
// checkpoint surface: Config.Sample drives System.Sampled, the
// estimate brackets the exact run, and Checkpoint/Resume reproduces
// the uninterrupted result exactly.
func TestSampledAndCheckpointFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows")
	}
	cfg := twig.DefaultConfig()
	cfg.Instructions = 100_000
	cfg.Sample = twig.SampleConfig{Interval: 5_000, Period: 4, Warmup: 1_000}
	sys, err := twig.NewSystem(twig.Verilator, cfg)
	if err != nil {
		t.Fatal(err)
	}

	est, err := sys.Sampled("baseline", 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Intervals != 20 || est.Measured != 5 {
		t.Fatalf("intervals %d measured %d, want 20/5", est.Intervals, est.Measured)
	}
	if est.Confidence != 0.95 {
		t.Fatalf("confidence %g, want the 0.95 default", est.Confidence)
	}
	if est.WorkReduction <= 1 {
		t.Fatalf("work reduction %.2fx, want > 1", est.WorkReduction)
	}
	if est.IPC.Lo > est.IPC.Value || est.IPC.Hi < est.IPC.Value {
		t.Fatalf("malformed IPC stat %+v", est.IPC)
	}
	exact, err := sys.Run("baseline", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Verilator is the stationary loop-heavy outlier, so even a short
	// sampled run should land near the exact IPC; the band is loose
	// because this is a smoke test, not the calibration matrix
	// (internal/core has that).
	if est.IPC.Value < exact.IPC*0.5 || est.IPC.Value > exact.IPC*2 {
		t.Errorf("sampled IPC %.3f implausibly far from exact %.3f", est.IPC.Value, exact.IPC)
	}

	data, err := sys.Checkpoint("baseline", 0, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Resume("baseline", 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, exact) {
		t.Errorf("resumed result differs from uninterrupted run:\n got %+v\nwant %+v", res, exact)
	}

	// Sampling must be explicitly configured.
	plain, err := twig.NewSystem(twig.Verilator, twig.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Sampled("baseline", 0); err == nil {
		t.Fatal("Sampled without Config.Sample accepted")
	}
}
