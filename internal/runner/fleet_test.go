package runner

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"twig/internal/core"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// declining is a Fleet that records the names of each offer and runs
// none of them.
type declining struct {
	mu     sync.Mutex
	offers [][]string
}

func (d *declining) Offer(_ context.Context, _ workload.App, _ int, names []string, _ core.Options, _ Training, _ core.Options) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.offers = append(d.offers, append([]string(nil), names...))
	return errors.New("declined")
}

// TestSchemesOffersWhatEveryTierMisses pins the runner's side of the
// fleet: a Schemes call offers exactly the runs no cache tier holds and
// this runner is not resolving, as one call; what the fleet declines
// runs locally with the answer a fleetless runner gives; and a run
// without a content hash is never offered.
func TestSchemesOffersWhatEveryTierMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a window")
	}
	ctx := context.Background()
	app := workload.Verilator
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = 20_000
	tr := Training{Opts: opts}
	cache, err := OpenCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Workers: 1, Cache: cache}).Schemes(ctx, app, 0, []string{"baseline"}, opts, tr, opts); err != nil {
		t.Fatal(err)
	}

	fleet := &declining{}
	r := New(Options{Workers: 1, Cache: cache, Fleet: fleet})
	got, err := r.Schemes(ctx, app, 0, []string{"baseline", "twig"}, opts, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(Options{Workers: 1}).Schemes(ctx, app, 0, []string{"baseline", "twig"}, opts, tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("runs the fleet declined differ from a fleetless runner's")
	}
	if !reflect.DeepEqual(fleet.offers, [][]string{{"twig"}}) {
		t.Fatalf("offers = %v, want the cached baseline peeled and twig offered once", fleet.offers)
	}
	if st := r.Stats(); st.SimRuns != 1 || st.SimHits != 1 {
		t.Fatalf("sims %d run, %d cached; want the declined twig run here and baseline cached", st.SimRuns, st.SimHits)
	}

	// Runs this runner already resolved, and runs without a content
	// hash, are not offered.
	if _, err := r.Schemes(ctx, app, 0, []string{"twig"}, opts, tr, opts); err != nil {
		t.Fatal(err)
	}
	observed := opts
	observed.Telemetry.Registry = telemetry.NewRegistry()
	if _, err := r.Schemes(ctx, app, 0, []string{"ideal"}, observed, tr, opts); err != nil {
		t.Fatal(err)
	}
	if len(fleet.offers) != 1 {
		t.Fatalf("offers = %v, want no offer for a memoized run or an observed one", fleet.offers)
	}
}
