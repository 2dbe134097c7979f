package experiments

import (
	"bytes"
	stdctx "context"
	"reflect"
	"strings"
	"testing"
	"time"

	"twig/internal/runner"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// sampledRun executes the "sampled" experiment on a fresh runner with
// the given worker count and cache, returning the rendered output and
// the canonicalized run ledger.
func sampledRun(t *testing.T, workers int, cache *runner.Cache) (string, []byte) {
	t.Helper()
	led := telemetry.NewLedger()
	var out bytes.Buffer
	ctx := NewContext(&out, 40_000)
	ctx.Apps = []workload.App{workload.Verilator}
	ctx.SetRunner(runner.New(runner.Options{Workers: workers, Ledger: led, Cache: cache}))
	e, ok := ByID("sampled")
	if !ok {
		t.Fatal("registry missing the sampled experiment")
	}
	if err := ctx.RunOne(e); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := led.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	canon, err := telemetry.CanonicalizeJSONL(buf.Bytes())
	if err != nil {
		t.Fatalf("ledger invalid: %v\n%s", err, buf.Bytes())
	}
	return out.String(), canon
}

// TestSampledExperimentDeterministicAcrossWorkers is the sampled slice
// of the j1-vs-j8 oracle: the experiment's rendered table and its
// canonical ledger must be byte-identical on 1 and 8 workers.
func TestSampledExperimentDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates sampled and exact windows twice")
	}
	out1, led1 := sampledRun(t, 1, nil)
	out8, led8 := sampledRun(t, 8, nil)
	if out1 != out8 {
		t.Errorf("sampled output differs across worker counts\n--- j1 ---\n%s--- j8 ---\n%s", out1, out8)
	}
	if !bytes.Equal(led1, led8) {
		t.Errorf("sampled ledgers differ across worker counts\n--- j1 ---\n%s--- j8 ---\n%s", led1, led8)
	}
	for _, want := range []string{"spec: interval=", "work red.", "verilator"} {
		if !strings.Contains(out1, want) {
			t.Errorf("sampled output lacks %q:\n%s", want, out1)
		}
	}
}

// TestSampledJobsCacheAddressable pins the runner wiring: sampled
// estimates are content-addressed cache entries, so a warm rerun
// replays them without executing a single simulation; and a sampled
// job runs first on a 1-worker runner without deadlocking.
func TestSampledJobsCacheAddressable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a sampled estimate twice")
	}
	cache, err := runner.OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	app := workload.Verilator

	cold := NewContext(&bytes.Buffer{}, 40_000)
	cold.Apps = []workload.App{app}
	cold.SetRunner(runner.New(runner.Options{Workers: 2, Cache: cache}))
	estCold, err := cold.Sampled(app, 0, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Runner().Stats(); s.SimRuns == 0 {
		t.Fatalf("cold run executed no sampled simulations: %+v", s)
	}

	warm := NewContext(&bytes.Buffer{}, 40_000)
	warm.Apps = []workload.App{app}
	warm.SetRunner(runner.New(runner.Options{Workers: 2, Cache: cache}))
	estWarm, err := warm.Sampled(app, 0, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	s := warm.Runner().Stats()
	if s.SimRuns != 0 || s.SimHits == 0 {
		t.Errorf("warm rerun executed %d sampled simulations (%d hits), want 0 (some)", s.SimRuns, s.SimHits)
	}
	if !reflect.DeepEqual(estCold, estWarm) {
		t.Errorf("cache-replayed estimate differs:\ncold %+v\nwarm %+v", estCold, estWarm)
	}

	// A fresh 1-worker runner samples before anything has built the
	// artifacts. The artifacts are a declared dependency, built before
	// the job takes the only worker slot; a job body that built them
	// itself would wait forever for that slot. The deadline turns such
	// a hang into a failure.
	dctx, cancel := stdctx.WithTimeout(stdctx.Background(), time.Minute)
	defer cancel()
	fresh := NewContext(&bytes.Buffer{}, 40_000)
	fresh.Apps = []workload.App{app}
	fresh.SetContext(dctx)
	estFirst, err := fresh.Sampled(app, 0, "baseline")
	if err != nil {
		t.Fatalf("sampled first on a 1-worker runner: %v", err)
	}
	if !reflect.DeepEqual(estFirst, estCold) {
		t.Error("1-worker estimate differs from the 2-worker run's")
	}
}
