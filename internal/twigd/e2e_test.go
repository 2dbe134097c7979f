package twigd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"twig/internal/core"
	"twig/internal/pipeline"
	"twig/internal/runner"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// fleet is an in-process coordinator plus workers for end-to-end tests.
type fleet struct {
	srv     *Server
	client  *Client
	workers []*Worker
}

// startFleet boots a coordinator over blobs and n workers on loopback;
// everything shuts down via t.Cleanup.
func startFleet(t *testing.T, blobs BlobStore, ttl time.Duration, n int) *fleet {
	t.Helper()
	srv := NewServer(blobs, ttl)
	addr, stop, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	f := &fleet{srv: srv, client: NewClient("http://" + addr)}
	for i := 0; i < n; i++ {
		w := &Worker{
			Client: NewClient("http://" + addr),
			Name:   fmt.Sprintf("w%d", i),
			Jobs:   2,
			Poll:   20 * time.Millisecond,
		}
		f.workers = append(f.workers, w)
		go w.Run(ctx)
	}
	// A wait finding no live worker runs the call locally, so the fleet
	// is ready only once every worker has registered.
	for deadline := time.Now().Add(time.Minute); srv.aliveWorkers() < n; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers registered", srv.aliveWorkers(), n)
		}
	}
	return f
}

// completed sums settled leases across the fleet's workers.
func (f *fleet) completed() int64 {
	var n int64
	for _, w := range f.workers {
		n += w.Completed()
	}
	return n
}

// window returns the paper's options at a short simulation window.
func window(instructions int64) core.Options {
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = instructions
	return opts
}

// offer runs one Runner.Schemes call's worth of work on the fleet, as
// a client at home at opts would, and fails the test unless the fleet
// settles it.
func offer(t *testing.T, c *Client, app workload.App, schemes []string, opts core.Options) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Offer(ctx, app, 0, schemes, opts, runner.Training{Opts: opts}, opts); err != nil {
		t.Fatal(err)
	}
}

// memberHash returns the content hash of one scheme's run of verilator
// at input 0 for a client at home at opts.
func memberHash(t *testing.T, scheme string, opts core.Options) string {
	t.Helper()
	m, err := runner.SchemeMember(scheme, workload.Verilator, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m.Hash
}

// TestFleetDrainsMatrixToSharedStore offers one group call to a
// two-worker fleet and checks that its results land in the shared
// store under the hashes the local paths address, and that offering
// the same work again runs nothing.
func TestFleetDrainsMatrixToSharedStore(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows")
	}
	blobs := NewMemBlobs()
	f := startFleet(t, blobs, 5*time.Second, 2)
	opts := window(50_000)
	schemes := []string{"baseline", "twig"}
	offer(t, f.client, workload.Verilator, schemes, opts)

	if c := f.srv.Queue().Counts(); c.Done != 1 || c.Failed != 0 {
		t.Fatalf("queue = %+v, want the one schemes job done", c)
	}
	// Every cell's result sits in the shared store under the exact hash
	// the local execution paths address, and replays through a client
	// cache's remote tier.
	cache, err := runner.OpenCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetRemote(f.client.Blobs(), runner.Backoff{}, 0)
	for _, scheme := range schemes {
		hash := memberHash(t, scheme, opts)
		if _, err := blobs.Get(hash); err != nil {
			t.Fatalf("store lacks %s result %s: %v", scheme, hash[:12], err)
		}
		if _, ok := cache.Get(hash, runner.ResultCodec{}); !ok {
			t.Fatalf("%s result did not replay through the remote tier", scheme)
		}
	}

	// Offering the same work again is free: submission is idempotent,
	// the job is already done, and no worker runs anything new.
	before := f.completed()
	offer(t, f.client, workload.Verilator, []string{"twig", "baseline"}, opts)
	if c := f.srv.Queue().Counts(); c.Done != 1 {
		t.Fatalf("warm queue = %+v, want still exactly one job", c)
	}
	if got := f.completed(); got != before {
		t.Fatalf("warm re-offer ran %d new jobs", got-before)
	}
	if st := blobs.Stats(); st.Puts == 0 || st.Blobs == 0 {
		t.Fatalf("store stats = %+v, want recorded puts", st)
	}
}

// TestLeaseExpiryReassignsToLiveWorker kills a worker mid-lease (by
// never heartbeating) and checks the fleet still completes the job:
// the lease expires, the job requeues, a live worker claims it, the
// client's wait ends when it is done, and the ghost's late completion
// is dropped.
func TestLeaseExpiryReassignsToLiveWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a window under a short lease")
	}
	blobs := NewMemBlobs()
	srv := NewServer(blobs, 250*time.Millisecond)
	addr, stop, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	client := NewClient("http://" + addr)

	opts := window(50_000)
	spec := NewJobSpec(workload.Verilator, 0, []string{"baseline"}, opts, runner.Training{Opts: opts}, opts)
	ids, err := client.Submit(context.Background(), []JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	// The ghost claims the job and is never heard from again.
	resp, err := client.Claim(context.Background(), "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job == nil || resp.Job.ID != ids[0] {
		t.Fatalf("ghost claim = %+v, want %s", resp.Job, ids[0])
	}

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	w := &Worker{Client: NewClient("http://" + addr), Name: "live", Jobs: 2, Poll: 20 * time.Millisecond}
	go w.Run(ctx)

	// Offering the same work resubmits it idempotently and waits through
	// the expiry until the live worker has done it.
	offer(t, client, workload.Verilator, []string{"baseline"}, opts)
	if st := srv.Queue().Counts(); st.Done != 1 || st.Failed != 0 {
		t.Fatalf("queue = %+v, want the job done after lease expiry", st)
	}
	if jobs := srv.Queue().Jobs(); len(jobs) != 1 || jobs[0].Requeues < 1 || jobs[0].Worker != "" {
		t.Fatalf("jobs = %+v, want the job requeued at least once", jobs)
	}
	if _, err := blobs.Get(memberHash(t, "baseline", opts)); err != nil {
		t.Fatalf("the live worker's result is not in the store: %v", err)
	}
	// The ghost's completion arrives after reassignment: dropped.
	ok, err := client.Complete(CompleteRequest{Worker: "ghost", Job: ids[0], OK: true})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("late completion from the expired ghost was accepted")
	}
}

// TestCorruptRemoteBlobReexecutedOverHTTP pre-seeds the shared store
// with garbage at a result's content address and checks the fleet
// treats it as a miss over the real wire: the worker rejects the
// envelope, re-executes the cell, and repairs the blob.
func TestCorruptRemoteBlobReexecutedOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a window")
	}
	opts := window(50_000)
	hash := memberHash(t, "baseline", opts)
	corrupt := []byte(`{"format":"not a cache envelope"}`)

	blobs := NewMemBlobs()
	if err := blobs.Put(hash, corrupt); err != nil {
		t.Fatal(err)
	}
	f := startFleet(t, blobs, 5*time.Second, 1)
	offer(t, f.client, workload.Verilator, []string{"baseline"}, opts)

	if c := f.srv.Queue().Counts(); c.Done != 1 || c.Failed != 0 {
		t.Fatalf("queue = %+v, want the job done despite the corrupt blob", c)
	}
	repaired, err := blobs.Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(repaired, corrupt) {
		t.Fatal("corrupt blob was not repaired by re-execution")
	}
	cache, err := runner.OpenCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetRemote(f.client.Blobs(), runner.Backoff{}, 0)
	if _, ok := cache.Get(hash, runner.ResultCodec{}); !ok {
		t.Fatal("repaired blob does not decode through the remote tier")
	}
}

// submitStatus posts body to /v1/submit and returns the status code
// and message.
func submitStatus(t *testing.T, c *Client, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(c.Base+"/v1/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(msg)
}

// requireEmptyQueue fails unless the coordinator has queued nothing.
func requireEmptyQueue(t *testing.T, f *fleet, what string) {
	t.Helper()
	if c := f.srv.Queue().Counts(); c != (QueueCounts{}) {
		t.Errorf("%s: queue = %+v after a rejected submit, want all zero", what, c)
	}
}

// TestSubmitIsAllOrNothing pins /v1/submit over HTTP: a batch with an
// invalid spec is answered 400 and queues none of its valid specs, and
// a spec in a retired shape (the checkpoint job's type, scheme, at,
// wait_for and config) is refused by name instead of running as some
// other job.
func TestSubmitIsAllOrNothing(t *testing.T) {
	f := startFleet(t, NewMemBlobs(), time.Second, 0)
	opts := window(50_000)
	valid := NewJobSpec(workload.Verilator, 0, []string{"baseline"}, opts, runner.Training{Opts: opts}, opts)
	bad := valid
	bad.Schemes = []string{"warp-drive"}
	batch, err := json.Marshal(SubmitRequest{Jobs: []JobSpec{valid, bad}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, body, want string }{
		{"valid then invalid", string(batch), "warp-drive"},
		{"checkpoint-shaped", `{"jobs":[{"type":"checkpoint","app":"verilator","scheme":"twig",` +
			`"at":30000,"wait_for":[],"config":{"instructions":60000}}]}`, "unknown field"},
	} {
		if code, msg := submitStatus(t, f.client, tc.body); code != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: %d %q, want 400 naming %q", tc.name, code, msg, tc.want)
		}
		requireEmptyQueue(t, f, tc.name)
	}
}

// TestSubmitRefusesWhatAWorkerCannotRun pins JobSpec.Validate over
// HTTP: an option set whose BTB geometry the simulator cannot build,
// in any of the spec's three option sets, or one that carries an
// observer, is answered 400 and queues nothing, instead of reaching a
// worker as a job that fails.
func TestSubmitRefusesWhatAWorkerCannotRun(t *testing.T) {
	f := startFleet(t, NewMemBlobs(), time.Second, 0)
	opts := window(50_000)
	spec := func(edit func(*JobSpec)) JobSpec {
		s := NewJobSpec(workload.Verilator, 0, []string{"baseline", "twig"}, opts, runner.Training{Opts: opts}, opts)
		edit(&s)
		return s
	}
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"1000-entry BTB", spec(func(s *JobSpec) { s.Opts.BTB.Entries = 1000 }), "opts: btb: sets 250 not a power of two"},
		{"8K 3-way training BTB", spec(func(s *JobSpec) { s.Train.Opts.BTB.Ways = 3 }), "train: btb: invalid geometry"},
		{"home with a registry", spec(func(s *JobSpec) { s.Home.Telemetry.Registry = telemetry.NewRegistry() }), "home: carries an observer"},
	} {
		body, err := json.Marshal(SubmitRequest{Jobs: []JobSpec{tc.spec}})
		if err != nil {
			t.Fatal(err)
		}
		if code, msg := submitStatus(t, f.client, string(body)); code != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: %d %q, want 400 naming %q", tc.name, code, msg, tc.want)
		}
		requireEmptyQueue(t, f, tc.name)
	}
}

// TestOfferSurvivesCoordinatorRestart replaces the coordinator on the
// same address while a client waits on a job. The new coordinator has
// lost the in-memory queue, so the wait names a job it does not know;
// the client resubmits, the new fleet runs the job, and the client's
// runner replays it, equal to a local run and executing nothing itself.
func TestOfferSurvivesCoordinatorRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a window")
	}
	opts := window(50_000)
	schemes := []string{"baseline", "twig"}
	tr := runner.Training{Opts: opts}
	want, err := runner.New(runner.Options{Workers: 2}).Schemes(context.Background(), workload.Verilator, 0, schemes, opts, tr, opts)
	if err != nil {
		t.Fatal(err)
	}

	old := NewServer(NewMemBlobs(), time.Minute)
	addr, stopOld, err := old.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopOld)
	url := "http://" + addr
	client := NewClient(url)
	cache, err := runner.OpenCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	cache.SetRemote(client.Blobs(), client.Retry, client.Retries)
	run := runner.New(runner.Options{Workers: 2, Cache: cache, Fleet: client})
	// The ghost registers before the client offers anything, so the
	// client's wait never finds a fleet without a live worker.
	ghost := NewClient(url)
	if _, err := ghost.Register("ghost", 1); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res map[string]*pipeline.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := run.Schemes(context.Background(), workload.Verilator, 0, schemes, opts, tr, opts)
		done <- outcome{res, err}
	}()

	// A ghost worker claims the job and sits on it, so the client is
	// waiting when the coordinator goes away.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		resp, err := ghost.Claim(context.Background(), "ghost")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Job != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the client never submitted its job")
		}
	}
	time.Sleep(50 * time.Millisecond)
	stopOld()
	// The new coordinator knows its worker before it answers anyone, so
	// the client's next wait finds a live fleet.
	restarted := NewServer(NewMemBlobs(), time.Minute)
	restarted.Handler().ServeHTTP(httptest.NewRecorder(),
		httptest.NewRequest(http.MethodPost, "/v1/register", strings.NewReader(`{"worker":"w","slots":2}`)))
	if _, stop, err := restarted.Start(addr); err != nil {
		t.Fatal(err)
	} else {
		t.Cleanup(stop)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	w := &Worker{Client: NewClient(url), Name: "w", Jobs: 2, Poll: 20 * time.Millisecond}
	go w.Run(ctx)

	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !reflect.DeepEqual(got.res, want) {
		t.Fatal("results after the restart differ from the local run")
	}
	if c := restarted.Queue().Counts(); c.Done != 1 || c.Failed != 0 {
		t.Fatalf("restarted queue = %+v, want the resubmitted job done", c)
	}
	if st := run.Stats(); st.SimRuns != 0 || st.ProfileRuns != 0 {
		t.Fatalf("client ran %d sims and %d profiles, want the fleet to run them", st.SimRuns, st.ProfileRuns)
	}
}

// TestBlobEndpointWireContract pins the /blob surface: round-trips,
// 404 → ErrRemoteMiss, and malformed hashes rejected outright.
func TestBlobEndpointWireContract(t *testing.T) {
	f := startFleet(t, NewMemBlobs(), time.Second, 0)
	rc := f.client.Blobs()
	hash := strings.Repeat("5c", 32)

	if _, err := rc.Fetch(hash); !errors.Is(err, runner.ErrRemoteMiss) {
		t.Fatalf("absent blob fetch = %v, want ErrRemoteMiss", err)
	}
	payload := []byte(`{"hello":"fleet"}`)
	if err := rc.Store(hash, payload); err != nil {
		t.Fatal(err)
	}
	got, err := rc.Fetch(hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("fetch = %q, want %q", got, payload)
	}
	if err := rc.Store("../../etc/passwd", payload); err == nil {
		t.Fatal("malformed blob key accepted")
	}
	if _, err := rc.Fetch("nothex"); err == nil || errors.Is(err, runner.ErrRemoteMiss) {
		t.Fatalf("malformed key fetch = %v, want a hard error, not a miss", err)
	}
}
