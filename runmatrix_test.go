package twig

import (
	"reflect"
	"strings"
	"testing"
)

func matrixConfig(dir string, jobs int) Config {
	cfg := DefaultConfig()
	cfg.Instructions = 50_000
	cfg.Jobs = jobs
	cfg.CacheDir = dir
	return cfg
}

func TestRunMatrixParallelAndWarmCacheIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows")
	}
	dir := t.TempDir()
	apps := []App{Verilator}
	schemes := []string{"baseline", "twig"}
	inputs := []int{0, 1}

	serial, err := RunMatrix(matrixConfig("", 1), apps, schemes, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(apps)*len(schemes)*len(inputs) {
		t.Fatalf("got %d cells, want %d", len(serial), len(apps)*len(schemes)*len(inputs))
	}
	for key, res := range serial {
		if res.Instructions == 0 || res.Cycles == 0 {
			t.Fatalf("%v: empty result %+v", key, res)
		}
	}

	// Eight workers, cold disk cache: same cells, same numbers.
	cold, err := RunMatrix(matrixConfig(dir, 8), apps, schemes, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, cold) {
		t.Fatal("parallel matrix differs from serial")
	}

	// Warm disk cache: every cell replays from disk, identically.
	warm, err := RunMatrix(matrixConfig(dir, 8), apps, schemes, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, warm) {
		t.Fatal("warm-cache matrix differs from serial")
	}
}

func TestRunMatrixUnknownScheme(t *testing.T) {
	_, err := RunMatrix(matrixConfig("", 1), []App{Verilator}, []string{"warp-drive"}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("got %v", err)
	}
}

// TestRunMatrixEpochReachesCacheKey is the warm-cache regression for
// the epoch length: a run that samples epochs is not served the cache
// entry of the same run without them, and so returns the series a cold
// run does.
func TestRunMatrixEpochReachesCacheKey(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows")
	}
	apps, schemes := []App{Verilator}, []string{"baseline"}
	dir := t.TempDir()
	if _, err := RunMatrix(matrixConfig(dir, 1), apps, schemes, nil); err != nil {
		t.Fatal(err)
	}
	epochs := func(dir string) []EpochStats {
		t.Helper()
		cfg := matrixConfig(dir, 1)
		cfg.Epoch = 10_000
		got, err := RunMatrix(cfg, apps, schemes, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got[MatrixKey{Verilator, "baseline", 0}].Epochs
	}
	cold, warm := epochs(t.TempDir()), epochs(dir)
	if len(cold) != 5 {
		t.Fatalf("a cold 50k-instruction run at a 10k epoch sampled %d epochs, want 5", len(cold))
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("over a cache warmed without epochs, the run sampled %d epochs, want the cold run's %d", len(warm), len(cold))
	}
}
