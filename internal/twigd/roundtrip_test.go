package twigd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"

	"twig/internal/core"
	"twig/internal/experiments"
	"twig/internal/runner"
	"twig/internal/workload"
)

// call is the argument list of one Runner.Schemes call.
type call struct {
	app   workload.App
	input int
	names []string
	opts  core.Options
	tr    runner.Training
	home  core.Options
}

// recorder is a runner.Fleet that records every call a runner offers
// it and declines each one, so everything runs locally.
type recorder struct {
	mu    sync.Mutex
	calls []call
}

func (r *recorder) Offer(_ context.Context, app workload.App, input int, names []string, opts core.Options, tr runner.Training, home core.Options) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, call{app, input, append([]string(nil), names...), opts, tr, home})
	return errors.New("declined")
}

// wire encodes spec as a client submits it and decodes it as the
// coordinator does, unknown fields refused.
func wire(t *testing.T, spec JobSpec) JobSpec {
	t.Helper()
	data, err := json.Marshal(SubmitRequest{Jobs: []JobSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var got SubmitRequest
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	return got.Jobs[0]
}

// profileHash returns the content hash of the profile behind an
// artifacts job (TrainingJob builds it directly or re-analyzes it).
func profileHash(j *runner.Job) string {
	for _, d := range j.Deps {
		if d.Kind == runner.KindProfile {
			return d.Hash
		}
		if h := profileHash(d); h != "" {
			return h
		}
	}
	return ""
}

// TestRegistryTrafficRoundTrips runs the whole experiment registry on
// one app at a small window with a fleet that records every call the
// runner offers, then sends each call across the wire as a worker
// receives it. The decoded spec must validate, render the same
// CanonicalOptions for its three option sets, name the same
// TableMembers (IDs and hashes), and build its binary through the same
// TrainingJob from the same profile. The calls must include the ones
// the fleet's old operating-point struct could not carry.
func TestRegistryTrafficRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole registry on one app")
	}
	cache, err := runner.OpenCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	ctx := experiments.NewContext(io.Discard, 20_000)
	ctx.Apps = []workload.App{workload.Verilator}
	ctx.SetRunner(runner.New(runner.Options{Workers: 2, Cache: cache, Fleet: rec}))
	if err := ctx.RunSelected(nil, 2); err != nil {
		t.Fatal(err)
	}

	def := core.DefaultOptions()
	covered := map[string]bool{}
	for _, c := range rec.calls {
		got := wire(t, NewJobSpec(c.app, c.input, c.names, c.opts, c.tr, c.home))
		if err := got.Validate(); err != nil {
			t.Errorf("%s/%d %v: the coordinator would refuse the call: %v", c.app, c.input, c.names, err)
			continue
		}
		for _, o := range []struct {
			name      string
			got, want core.Options
		}{{"opts", got.Opts, c.opts}, {"train", got.Train.Opts, c.tr.Opts}, {"home", got.Home, c.home}} {
			if g, w := runner.CanonicalOptions(o.got), runner.CanonicalOptions(o.want); g != w {
				t.Errorf("%s/%d %v: %s drifted on the wire:\n got %s\nwant %s", c.app, c.input, c.names, o.name, g, w)
			}
		}
		want, err := runner.TableMembers(c.names, c.app, c.input, c.opts, c.tr, c.home)
		if err != nil {
			t.Fatal(err)
		}
		members, err := runner.TableMembers(got.Schemes, got.App, got.Input, got.Opts, got.Train, got.Home)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(members, want) {
			t.Errorf("%s/%d %v: members %+v on the wire, want %+v", c.app, c.input, c.names, members, want)
		}
		wantArt, gotArt := runner.TrainingJob(c.app, c.tr, c.home), runner.TrainingJob(got.App, got.Train, got.Home)
		if gotArt.ID != wantArt.ID || profileHash(gotArt) != profileHash(wantArt) || profileHash(wantArt) == "" {
			t.Errorf("%s/%d %v: training job %s (profile %.12s) on the wire, want %s (profile %.12s)",
				c.app, c.input, c.names, gotArt.ID, profileHash(gotArt), wantArt.ID, profileHash(wantArt))
		}
		covered["same-input training"] = covered["same-input training"] || c.tr.Input != 0
		covered["replacement"] = covered["replacement"] || c.opts.BTB.Replacement != def.BTB.Replacement
		covered["TAGE"] = covered["TAGE"] || c.opts.Pipeline.UseTAGE
		covered["min probability"] = covered["min probability"] || c.opts.Opt.MinProbability != def.Opt.MinProbability
		covered["ideal I-cache"] = covered["ideal I-cache"] || c.opts.Pipeline.IdealICache
	}
	t.Logf("%d offered calls", len(rec.calls))
	for _, want := range []string{"same-input training", "replacement", "TAGE", "min probability", "ideal I-cache"} {
		if !covered[want] {
			t.Errorf("no offered call varies %s", want)
		}
	}
}
