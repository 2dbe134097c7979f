package runner

import (
	"context"
	"reflect"
	"testing"

	"twig/internal/core"
	"twig/internal/pipeline"
	"twig/internal/workload"
)

// TestSchemesSharesSoloIdentity pins the one way to run a cached
// scheme: a solo job built from SchemeMember and a Runner.Schemes group
// address the same memo entry, so a scheme resolved solo is awaited by
// the group instead of simulated again; the group's results equal an
// uncached core.RunSchemes pass; and only executed runs are credited to
// the kIPS counter.
func TestSchemesSharesSoloIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and simulates a window")
	}
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = 20_000
	opts.Pipeline.Warmup = 10_000
	app := workload.Verilator
	r := New(Options{Workers: 1})
	ctx := context.Background()
	art := ArtifactsJob(app, 0, opts, "")

	m, err := SchemeMember("baseline", app, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != "run/base/verilator/0" || m.Kind != KindSim || m.Hash != HashSim("base/verilator/0", opts) {
		t.Fatalf("SchemeMember = %+v", m)
	}
	solo, err := r.Result(ctx, &Job{ID: m.ID, Kind: m.Kind, Hash: m.Hash, Codec: m.Codec, Deps: []*Job{art},
		Run: func(_ context.Context, deps []any) (any, error) {
			return deps[0].(*core.Artifacts).RunScheme("baseline", 0, opts)
		}})
	if err != nil {
		t.Fatal(err)
	}

	got, err := r.Schemes(ctx, app, 0, []string{"baseline", "ideal"}, opts, Training{Opts: opts}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got["baseline"] != solo.(*pipeline.Result) {
		t.Error("the group re-ran a scheme its solo job had resolved")
	}
	if s := r.Stats(); s.SimRuns != 2 {
		t.Errorf("SimRuns = %d, want 2 (baseline solo, ideal grouped)", s.SimRuns)
	}
	if s := r.Stats(); s.SimInstructions != got["ideal"].Instructions {
		t.Errorf("SimInstructions = %d, want the grouped run's %d", s.SimInstructions, got["ideal"].Instructions)
	}

	a, err := r.Result(ctx, art)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.(*core.Artifacts).RunSchemes([]string{"baseline", "ideal"}, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Runner.Schemes results differ from core.RunSchemes")
	}

	if _, err := SchemeMember("warp-drive", app, 0, opts); err == nil {
		t.Error("SchemeMember accepted an unknown scheme")
	}
}
