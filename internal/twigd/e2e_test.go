package twigd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"twig/internal/runner"
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

func drain(t *testing.T, c *Client, specs []JobSpec) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Drain(ctx, specs, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFleetDrainsMatrixToSharedStore(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows")
	}
	blobs := NewMemBlobs()
	f := startFleet(t, blobs, 5*time.Second, 2)
	cfg := SimConfig{Instructions: 50_000}
	schemes := []string{"baseline", "twig"}
	specs := MatrixSpecs(cfg, []workload.App{workload.Verilator}, schemes, nil)
	drain(t, f.client, specs)

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
	opts := cfg.Options()
	for _, scheme := range schemes {
		memo, err := runner.SchemeMemoKey(scheme, workload.Verilator, 0)
		if err != nil {
			t.Fatal(err)
		}
		hash := runner.HashSim(memo, opts)
		if _, err := blobs.Get(hash); err != nil {
			t.Fatalf("store lacks %s result %s: %v", scheme, hash[:12], err)
		}
		if _, ok := cache.Get(hash, runner.ResultCodec{}); !ok {
			t.Fatalf("%s result did not replay through the remote tier", scheme)
		}
	}

	// Re-draining the same matrix is free: submission is idempotent,
	// every job is already done, and no worker runs anything new.
	before := f.completed()
	drain(t, f.client, specs)
	if c := f.srv.Queue().Counts(); c.Done != 1 {
		t.Fatalf("warm queue = %+v, want still exactly one job", c)
	}
	if got := f.completed(); got != before {
		t.Fatalf("warm re-drain ran %d new jobs", got-before)
	}
	if st := blobs.Stats(); st.Puts == 0 || st.Blobs == 0 {
		t.Fatalf("store stats = %+v, want recorded puts", st)
	}
}

// TestLeaseExpiryReassignsToLiveWorker kills a worker mid-lease (by
// never heartbeating) and checks the fleet still completes the matrix:
// the lease expires, the job requeues, a live worker claims it, and
// the ghost's late completion is dropped.
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

	specs := MatrixSpecs(SimConfig{Instructions: 50_000},
		[]workload.App{workload.Verilator}, []string{"baseline"}, nil)
	ids, err := client.Submit(specs)
	if err != nil {
		t.Fatal(err)
	}
	// The ghost claims the job and is never heard from again.
	resp, err := client.Claim("ghost")
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

	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := client.Status()
		if err == nil && st.Queue.Done == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("matrix did not complete after lease expiry: %+v", st)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if jobs := srv.Queue().Jobs(); len(jobs) != 1 || jobs[0].Requeues < 1 {
		t.Fatalf("jobs = %+v, want the job requeued at least once", jobs)
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
	cfg := SimConfig{Instructions: 50_000}
	opts := cfg.Options()
	memo, err := runner.SchemeMemoKey("baseline", workload.Verilator, 0)
	if err != nil {
		t.Fatal(err)
	}
	hash := runner.HashSim(memo, opts)
	corrupt := []byte(`{"format":"not a cache envelope"}`)

	blobs := NewMemBlobs()
	if err := blobs.Put(hash, corrupt); err != nil {
		t.Fatal(err)
	}
	f := startFleet(t, blobs, 5*time.Second, 1)
	drain(t, f.client, MatrixSpecs(cfg, []workload.App{workload.Verilator}, []string{"baseline"}, nil))

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

// TestSubmitIsAllOrNothing pins /v1/submit over HTTP: a batch with an
// invalid spec is answered 400 and queues none of its valid specs, and
// a spec in the retired checkpoint shape (type, scheme, at, wait_for)
// is refused by name instead of running as some other job.
func TestSubmitIsAllOrNothing(t *testing.T) {
	f := startFleet(t, NewMemBlobs(), time.Second, 0)
	valid := MatrixSpecs(SimConfig{Instructions: 50_000},
		[]workload.App{workload.Verilator}, []string{"baseline"}, nil)[0]
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
		resp, err := http.Post(f.client.Base+"/v1/submit", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.want) {
			t.Errorf("%s: %s %q, want 400 naming %q", tc.name, resp.Status, msg, tc.want)
		}
		st, err := f.client.Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.Queue != (QueueCounts{}) {
			t.Errorf("%s: queue = %+v after a rejected submit, want all zero", tc.name, st.Queue)
		}
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
