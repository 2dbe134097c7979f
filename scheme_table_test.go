package twig_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"twig"
	"twig/internal/check"
	"twig/internal/core"
	"twig/internal/experiments"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
	"twig/internal/runner"
	"twig/internal/twigd"
)

// TestToySchemeIsOneTableEntry adds a scheme by appending one entry to
// core.Schemes and checks that every layer that takes scheme names sees
// it: the runner's memo keys, the facade's single, grouped and matrix
// runs, the experiment Context, and the fleet job its runner offers. The toy
// is a baseline BTB with a quarter of the entries, falsely marked
// BoundedByBaseline, so check.CrossScheme must flag it too.
func TestToySchemeIsOneTableEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and simulates one application three times")
	}
	const toy = "toy-quarter"
	savedSchemes, savedNames := core.Schemes, core.SchemeNames
	t.Cleanup(func() { core.Schemes, core.SchemeNames = savedSchemes, savedNames })
	core.Schemes = append(slices.Clip(core.Schemes), core.SchemeSpec{
		Name: toy, MemoPrefix: toy, BoundedByBaseline: true,
		Setup: func(cfg *pipeline.Config, opts core.Options) {
			geo := opts.BTB
			geo.Entries /= 4
			cfg.Scheme = prefetcher.NewBaseline(geo, 0, false)
		},
	})
	core.SchemeNames = nil
	for _, s := range core.Schemes {
		core.SchemeNames = append(core.SchemeNames, s.Name)
	}

	const app = twig.Verilator
	if key, err := runner.SchemeMemoKey(toy, app, 0); err != nil || key != toy+"/verilator/0" {
		t.Errorf("runner.SchemeMemoKey = %q, %v", key, err)
	}
	if !slices.Contains(twig.SchemeNames(), toy) {
		t.Errorf("twig.SchemeNames() = %v lacks %s", twig.SchemeNames(), toy)
	}

	cfg := twig.DefaultConfig()
	cfg.Instructions = 50_000
	cfg.CacheDir = t.TempDir()
	sys, err := twig.NewSystem(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := sys.Run(toy, 0)
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := sys.RunSchemes(0, twig.SchemeNames()...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(grouped[toy], solo) {
		t.Errorf("RunSchemes %s = %+v, solo Run = %+v", toy, grouped[toy], solo)
	}
	matrix, err := twig.RunMatrix(cfg, []twig.App{app}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := matrix[twig.MatrixKey{App: app, Scheme: toy, Input: 0}]; !ok || !reflect.DeepEqual(got, solo) {
		t.Errorf("RunMatrix default schemes: %s cell = %+v (present %v), solo Run = %+v", toy, got, ok, solo)
	}

	// The fleet path: the context's runner offers the grouped call,
	// toy included, to a fleet that records and declines it, and the
	// call's job spec survives the wire as a worker would receive it.
	cache, err := runner.OpenCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	fleet := &offers{}
	ctx := experiments.NewContext(io.Discard, 50_000)
	ctx.SetRunner(runner.New(runner.Options{Workers: 1, Cache: cache, Fleet: fleet}))
	runs, err := ctx.Schemes(app, 0, core.SchemeNames...)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.specs) != 1 || !slices.Contains(fleet.specs[0].Schemes, toy) {
		t.Errorf("offered jobs %+v, want one naming %s", fleet.specs, toy)
	} else if err := fleet.onTheWire(fleet.specs[0]); err != nil {
		t.Errorf("the fleet would not run %s: %v", toy, err)
	}
	executed := ctx.Runner().Stats().SimRuns
	one, err := ctx.Scheme(app, 0, toy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, runs[toy]) || ctx.Runner().Stats().SimRuns != executed {
		t.Errorf("Context.Scheme(%s) did not replay the grouped run's memo entry", toy)
	}
	err = check.CrossScheme(runs["baseline"], runs["ideal"], []check.SchemeRun{{Name: toy, Res: one}})
	if err == nil || !strings.Contains(err.Error(), toy) || !strings.Contains(err.Error(), "structural bound") {
		t.Errorf("CrossScheme did not report %s's structural-bound violation: %v", toy, err)
	}
}

// offers is a runner.Fleet that records each offered call as the job
// spec a client would submit and declines it, so everything runs
// locally.
type offers struct {
	mu    sync.Mutex
	specs []twigd.JobSpec
}

func (o *offers) Offer(_ context.Context, app twig.App, input int, names []string, opts core.Options, tr runner.Training, home core.Options) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.specs = append(o.specs, twigd.NewJobSpec(app, input, names, opts, tr, home))
	return errors.New("declined")
}

// onTheWire sends spec through JSON as a worker receives it and checks
// that it validates and names the members the client's call names.
func (o *offers) onTheWire(spec twigd.JobSpec) error {
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var got twigd.JobSpec
	if err := json.Unmarshal(data, &got); err != nil {
		return err
	}
	if err := got.Validate(); err != nil {
		return err
	}
	want, err := runner.TableMembers(spec.Schemes, spec.App, spec.Input, spec.Opts, spec.Train, spec.Home)
	if err != nil {
		return err
	}
	members, err := runner.TableMembers(got.Schemes, got.App, got.Input, got.Opts, got.Train, got.Home)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(members, want) {
		return fmt.Errorf("members %+v on the wire, want %+v", members, want)
	}
	return nil
}
