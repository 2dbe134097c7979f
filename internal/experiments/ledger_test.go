package experiments

import (
	"bytes"
	"testing"

	"twig/internal/runner"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// ledgerRun executes one experiment plus a grouped scheme set on a
// fresh, cache-less runner with the given worker count and returns
// the canonicalized run ledger.
func ledgerRun(t *testing.T, workers int) []byte {
	t.Helper()
	led := telemetry.NewLedger()
	var out bytes.Buffer
	ctx := NewContext(&out, 20_000)
	ctx.Apps = []workload.App{workload.Verilator}
	ctx.SetRunner(runner.New(runner.Options{Workers: workers, Ledger: led}))

	// A grouped scheme run (span tree: group → queue.wait/attempt,
	// per-scheme spans with warmup/measure under the member jobs'
	// shared group execution) plus a figure (exp: span, job: roots).
	// baseline and ideal share one binary, so they actually broadcast
	// over a stepcast ring instead of degenerating to singleton groups.
	if _, err := ctx.Schemes(workload.Verilator, 0, "baseline", "ideal"); err != nil {
		t.Fatal(err)
	}
	e, ok := ByID("fig1")
	if !ok {
		t.Fatal("registry missing fig1")
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
	return canon
}

// TestExperimentLedgerDeterministicAcrossWorkers is the end-to-end
// j1-vs-j8 satellite: a full experiments slice — grouped schemes,
// artifacts, simulations, figure rendering — must emit an identical
// ledger (modulo timing fields) on 1 and 8 workers. Both runs start
// from equivalent state (fresh runner, no cache), which is the
// precondition for cache-dependent attributes like probe tiers to
// agree.
func TestExperimentLedgerDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows twice")
	}
	j1 := ledgerRun(t, 1)
	j8 := ledgerRun(t, 8)
	if !bytes.Equal(j1, j8) {
		t.Fatalf("ledgers differ across worker counts\n--- j1 ---\n%s--- j8 ---\n%s", j1, j8)
	}
	for _, want := range []string{`"name":"exp:fig1"`, `"name":"measure"`, `"name":"warmup"`,
		`"name":"scheme:baseline"`, `"name":"scheme:ideal"`, `"name":"stepcast.produce"`,
		`"name":"queue.wait"`, `"name":"deps.wait"`, `"cat":"group"`} {
		if !bytes.Contains(j1, []byte(want)) {
			t.Fatalf("ledger lacks %s:\n%s", want, j1)
		}
	}
}
