// Tests for the verification layer, exercised against the real
// simulator: every frontend scheme crossed with a spread of workloads
// runs under a Recorder with a live registry and epoch series, the
// cross-scheme oracles run over the resulting partial order, and
// negative tests confirm the checkers actually reject broken inputs
// (a verifier that never fails verifies nothing).
package check_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"twig/internal/check"
	"twig/internal/core"
	"twig/internal/isa"
	"twig/internal/pipeline"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// The matrix window: small enough that scheme x workload x 2 runs
// stays interactive (and -short-friendly), large enough that every
// scheme sees thousands of BTB misses and several epoch boundaries.
const (
	matrixWindow = 100_000
	matrixEpoch  = 25_000
)

// matrixApps spans the workload families the paper characterizes:
// a large-footprint JVM app (cassandra), a small-footprint PHP app
// (drupal), and the loop-heavy streaming outlier (kafka).
func matrixApps() []workload.App {
	return []workload.App{workload.Cassandra, workload.Drupal, workload.Kafka}
}

var (
	artMu    sync.Mutex
	artCache = map[workload.App]*core.Artifacts{}
)

// artifactsFor builds (and caches across tests) one application,
// trained on input 0 at the matrix window.
func artifactsFor(t *testing.T, app workload.App) *core.Artifacts {
	t.Helper()
	artMu.Lock()
	defer artMu.Unlock()
	if a, ok := artCache[app]; ok {
		return a
	}
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = matrixWindow
	a, err := core.BuildAndOptimize(app, 0, opts)
	if err != nil {
		t.Fatalf("building %s: %v", app, err)
	}
	artCache[app] = a
	return a
}

// schemeRun names one scheme's runner on a built artifact set.
type schemeRun struct {
	name string
	run  func(int, core.Options) (*pipeline.Result, error)
}

func schemes(a *core.Artifacts) []schemeRun {
	var out []schemeRun
	for _, name := range []string{"baseline", "ideal", "twig", "shotgun", "confluence", "hierarchy", "shadow"} {
		out = append(out, schemeRun{name, func(input int, opts core.Options) (*pipeline.Result, error) {
			return a.RunScheme(name, input, opts)
		}})
	}
	return out
}

// runChecked simulates one scheme with the full verification rig
// attached — the Recorder sink, a fresh metric registry, and epoch-series
// sampling — and fails the test on any violated law.
func runChecked(t *testing.T, s schemeRun, input int) *pipeline.Result {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = matrixWindow
	opts.Telemetry.Registry = telemetry.NewRegistry()
	opts.Telemetry.EpochLength = matrixEpoch
	rec := check.Attach(&opts.Pipeline)
	res, err := s.run(input, opts)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	if err := rec.Verify(res); err != nil {
		t.Errorf("%s: %v", s.name, err)
	}
	if err := rec.VerifyRegistry(opts.Telemetry.Registry, res); err != nil {
		t.Errorf("%s: %v", s.name, err)
	}
	if err := check.VerifySeries(res); err != nil {
		t.Errorf("%s: %v", s.name, err)
	}
	return res
}

// TestSchemeWorkloadMatrix runs every scheme on every matrix workload
// under the full verification rig. Under the twigcheck build tag the
// pipeline's per-instruction invariants (clock monotonicity, queue
// occupancy bounds) run inside these simulations too.
func TestSchemeWorkloadMatrix(t *testing.T) {
	for _, app := range matrixApps() {
		art := artifactsFor(t, app)
		for _, s := range schemes(art) {
			t.Run(string(app)+"/"+s.name, func(t *testing.T) {
				runChecked(t, s, 0)
			})
		}
	}
}

// TestDeterminismMatrix replays every scheme x workload pair with the
// same input and requires bit-identical results — the property every
// other law (and every golden number in the repo) rests on.
func TestDeterminismMatrix(t *testing.T) {
	for _, app := range matrixApps() {
		art := artifactsFor(t, app)
		for _, s := range schemes(art) {
			t.Run(string(app)+"/"+s.name, func(t *testing.T) {
				r1 := runChecked(t, s, 1)
				r2 := runChecked(t, s, 1)
				if !reflect.DeepEqual(r1, r2) {
					t.Errorf("same seed, different results:\nrun1: %+v\nrun2: %+v", r1, r2)
				}
			})
		}
	}
}

// TestCrossSchemeOracle runs the differential oracles over all seven
// schemes on each matrix workload, including the structural
// "hierarchy/shadow never miss more than baseline" bounds.
func TestCrossSchemeOracle(t *testing.T) {
	for _, app := range matrixApps() {
		t.Run(string(app), func(t *testing.T) {
			art := artifactsFor(t, app)
			results := map[string]*pipeline.Result{}
			for _, s := range schemes(art) {
				results[s.name] = runChecked(t, s, 0)
			}
			err := check.CrossScheme(results["baseline"], results["ideal"], []check.SchemeRun{
				{Name: "twig", Res: results["twig"]},
				{Name: "shotgun", Res: results["shotgun"]},
				{Name: "confluence", Res: results["confluence"]},
				{Name: "hierarchy", Res: results["hierarchy"]},
				{Name: "shadow", Res: results["shadow"]},
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// directResult builds a minimal structurally-sane Result with the
// given direct-branch miss count, for negative tests.
func directResult(accesses, misses int64) *pipeline.Result {
	r := &pipeline.Result{Instructions: 1000, Original: 1000, Cycles: 2000}
	r.BTB.Accesses[isa.KindJump] = accesses
	r.BTB.Misses[isa.KindJump] = misses
	return r
}

// TestVerifyRejectsMismatch feeds a Recorder that observed nothing a
// Result claiming events happened; every cross-check law must fire.
func TestVerifyRejectsMismatch(t *testing.T) {
	var cfg pipeline.Config
	rec := check.Attach(&cfg)
	res := directResult(100, 10)
	res.BTBResteers = 10
	res.CondMispredicts = 3
	res.CoveredMisses = 2
	res.Prefetch.Used = 2
	err := rec.Verify(res)
	if err == nil {
		t.Fatal("Verify accepted a Result the sink never saw")
	}
	for _, law := range []string{"BTBResteers", "CondMispredicts", "CoveredMisses"} {
		if !strings.Contains(err.Error(), law) {
			t.Errorf("error does not mention %s law: %v", law, err)
		}
	}
}

// TestVerifyRejectsBackwardsClock drives the attached sink directly
// with a time-travelling cycle sequence.
func TestVerifyRejectsBackwardsClock(t *testing.T) {
	var cfg pipeline.Config
	rec := check.Attach(&cfg)
	cfg.Sink.Taken(0, 1, 100)
	cfg.Sink.Taken(1, 2, 99) // backwards
	res := directResult(2, 0)
	err := rec.Verify(res)
	if err == nil || !strings.Contains(err.Error(), "moved backwards") {
		t.Fatalf("backwards fetch clock not reported: %v", err)
	}
}

// TestVerifyRejectsBadLifecycle checks the scheme-cumulative prefetch
// laws on a warmup-free run.
func TestVerifyRejectsBadLifecycle(t *testing.T) {
	var cfg pipeline.Config
	rec := check.Attach(&cfg)
	res := directResult(100, 0)
	res.Prefetch.Issued = 1
	res.Prefetch.Used = 5 // used > issued
	res.CoveredMisses = 5
	// Make the event counts match CoveredMisses so only the lifecycle
	// law fires.
	for i := 0; i < 5; i++ {
		cfg.Sink.PrefetchUse(0, float64(i), 0, 0)
	}
	err := rec.Verify(res)
	if err == nil || !strings.Contains(err.Error(), "exceeds issued") {
		t.Fatalf("used > issued not reported: %v", err)
	}
}

// TestCrossSchemeRejectsViolations hands the oracle a world where the
// "ideal" BTB misses and a scheme out-runs it.
func TestCrossSchemeRejectsViolations(t *testing.T) {
	base := directResult(1000, 100)
	ideal := directResult(1000, 5) // an ideal BTB must not miss
	fast := directResult(1000, 50)
	fast.Cycles = 100 // IPC 10 vs ideal's 0.5
	err := check.CrossScheme(base, ideal, []check.SchemeRun{{Name: "fast", Res: fast}})
	if err == nil {
		t.Fatal("oracle accepted a missing ideal BTB and a faster-than-ideal scheme")
	}
	for _, law := range []string{"direct misses", "IPC"} {
		if !strings.Contains(err.Error(), law) {
			t.Errorf("error does not mention %q: %v", law, err)
		}
	}
}

// TestVerifySeriesRejectsTamperedSeries corrupts one epoch sample and
// expects the additivity check to notice.
func TestVerifySeriesRejectsTamperedSeries(t *testing.T) {
	art := artifactsFor(t, workload.Kafka)
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = matrixWindow
	opts.Telemetry.Registry = telemetry.NewRegistry()
	opts.Telemetry.EpochLength = matrixEpoch
	res, err := art.RunScheme("baseline", 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.VerifySeries(res); err != nil {
		t.Fatalf("untampered series rejected: %v", err)
	}
	// Corrupt the final row: intermediate-row tampering telescopes
	// away in the epoch-delta sums by construction.
	col := res.Series.Col("pipeline_cycles")
	res.Series.Samples[res.Series.Len()-1][col] += 7
	if err := check.VerifySeries(res); err == nil {
		t.Fatal("tampered series accepted")
	}
}
