package twig

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"twig/internal/twigd"
)

// startTestFleet boots a coordinator and n workers on loopback and
// returns the coordinator URL plus the workers (for completion
// counts); everything shuts down via t.Cleanup.
func startTestFleet(t *testing.T, n int) (string, []*twigd.Worker) {
	t.Helper()
	srv := twigd.NewServer(twigd.NewMemBlobs(), 5*time.Second)
	addr, stop, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	url := "http://" + addr
	workers := make([]*twigd.Worker, n)
	for i := range workers {
		w := &twigd.Worker{
			Client:   twigd.NewClient(url),
			Name:     fmt.Sprintf("w%d", i),
			Jobs:     2,
			CacheDir: t.TempDir(),
			Poll:     20 * time.Millisecond,
		}
		workers[i] = w
		go w.Run(ctx)
	}
	// A wait finding no live worker runs the call locally, so the fleet
	// is ready only once every worker has registered.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		var st twigd.StatusResponse
		if resp, err := http.Get(url + "/v1/status"); err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && st.AliveWorkers >= n {
				return url, workers
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers registered", st.AliveWorkers, n)
		}
	}
}

// TestRunMatrixWithCoordinatorByteIdentical is the facade-level fleet
// contract: a matrix distributed over workers must return exactly the
// map a single-process run returns, the fleet (not the client) must do
// the simulating, and a warm rerun against the same fleet must run
// nothing new anywhere.
func TestRunMatrixWithCoordinatorByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows")
	}
	apps := []App{Verilator}
	schemes := []string{"baseline", "twig"}
	inputs := []int{0}

	plain, err := RunMatrix(matrixConfig("", 2), apps, schemes, inputs)
	if err != nil {
		t.Fatal(err)
	}

	url, workers := startTestFleet(t, 2)
	cfg := matrixConfig(t.TempDir(), 2)
	cfg.Coordinator = url
	fleet, err := RunMatrix(cfg, apps, schemes, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, fleet) {
		t.Fatal("distributed matrix differs from single-process matrix")
	}
	completed := func() int64 {
		var n int64
		for _, w := range workers {
			n += w.Completed()
		}
		return n
	}
	did := completed()
	if did == 0 {
		t.Fatal("no worker completed a job; the matrix was not distributed")
	}

	// Warm rerun from a fresh local cache: every cell replays from the
	// fleet's shared store, and no worker runs anything new.
	cfg2 := matrixConfig(t.TempDir(), 2)
	cfg2.Coordinator = url
	warm, err := RunMatrix(cfg2, apps, schemes, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, warm) {
		t.Fatal("warm fleet matrix differs from single-process matrix")
	}
	if got := completed(); got != did {
		t.Fatalf("warm rerun ran %d new fleet jobs", got-did)
	}
}

// TestRunMatrixCoordinatorUnreachableDegradesToLocal pins graceful
// degradation: a dead coordinator must cost a few connection attempts,
// not correctness — the matrix still computes locally, identically.
func TestRunMatrixCoordinatorUnreachableDegradesToLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a window")
	}
	plain, err := RunMatrix(matrixConfig("", 1), []App{Verilator}, []string{"baseline"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := matrixConfig("", 1)
	cfg.Coordinator = "http://127.0.0.1:1" // nothing listens here
	got, err := RunMatrix(cfg, []App{Verilator}, []string{"baseline"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatal("degraded matrix differs from plain local matrix")
	}
}

// TestRunMatrixCoordinatorWithoutWorkersRunsLocally pins the dead-fleet
// rule: a reachable coordinator with no registered worker answers the
// wait at once (work pending, nothing leased, no worker alive), so the
// matrix computes locally, identically, long before a lease could
// expire.
func TestRunMatrixCoordinatorWithoutWorkersRunsLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a window")
	}
	plain, err := RunMatrix(matrixConfig("", 1), []App{Verilator}, []string{"baseline"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const ttl = 10 * time.Minute
	srv := twigd.NewServer(twigd.NewMemBlobs(), ttl)
	addr, stop, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	cfg := matrixConfig("", 1)
	cfg.Coordinator = "http://" + addr
	start := time.Now()
	got, err := RunMatrix(cfg, []App{Verilator}, []string{"baseline"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatal("matrix beside a workerless fleet differs from plain local matrix")
	}
	if took := time.Since(start); took > ttl/10 {
		t.Fatalf("took %s: the client waited on a fleet with no worker", took)
	}
	if c := srv.Queue().Counts(); c.Pending != 1 || c.Done != 0 {
		t.Fatalf("queue = %+v, want the offered job still pending", c)
	}
}
