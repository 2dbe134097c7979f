package twigd

import (
	"strings"
	"testing"
	"time"

	"twig/internal/runner"
	"twig/internal/workload"
)

// queueSpec builds a minimal valid schemes job for queue-level tests
// (nothing here executes; the spec just has to pass Validate).
func queueSpec(app workload.App, input int) JobSpec {
	opts := window(50_000)
	return NewJobSpec(app, input, []string{"baseline"}, opts, runner.Training{Opts: opts}, opts)
}

func TestQueueSubmitIdempotent(t *testing.T) {
	q := NewQueue(time.Minute, 0)
	ids1, err := q.Submit(queueSpec(workload.Verilator, 0))
	if err != nil {
		t.Fatal(err)
	}
	ids2, err := q.Submit(queueSpec(workload.Verilator, 0))
	if err != nil {
		t.Fatal(err)
	}
	if ids1[0] != ids2[0] {
		t.Fatalf("resubmission changed ID: %q vs %q", ids1[0], ids2[0])
	}
	if c := q.Counts(); c.Pending != 1 {
		t.Fatalf("counts = %+v, want exactly 1 pending", c)
	}
	// Differing configuration must NOT merge: member hashes diverge.
	other := queueSpec(workload.Verilator, 0)
	other.Opts.Pipeline.MaxInstructions = 60_000
	ids3, err := q.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if ids3[0] == ids1[0] {
		t.Fatal("different operating points merged into one queue entry")
	}
	// The same work from a client at another home merges: the queue ID
	// digests the members' content hashes, not their memo IDs.
	away := queueSpec(workload.Verilator, 0)
	away.Home.PrefetchBuffer = 32
	ids4, err := q.Submit(away)
	if err != nil {
		t.Fatal(err)
	}
	if ids4[0] != ids1[0] {
		t.Fatalf("the same baseline run from another home got ID %q, want %q", ids4[0], ids1[0])
	}
}

func TestQueueSubmitRejectsInvalidSpec(t *testing.T) {
	q := NewQueue(time.Minute, 0)
	if _, err := q.Submit(JobSpec{App: workload.Verilator}); err == nil {
		t.Fatal("spec without schemes accepted")
	}
	bad := queueSpec(workload.Verilator, 0)
	bad.Schemes = []string{"warp-drive"}
	if _, err := q.Submit(bad); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestQueueClaimOrderAndLifecycle(t *testing.T) {
	q := NewQueue(time.Minute, 0)
	ids, _ := q.Submit(queueSpec(workload.Verilator, 0), queueSpec(workload.Kafka, 0))
	idA, idB := ids[0], ids[1]
	t0 := time.Unix(1000, 0)

	first := q.Claim("w1", t0)
	if first == nil || first.ID != idA {
		t.Fatalf("claim = %+v, want first-submitted %s", first, idA)
	}
	if !q.Heartbeat("w1", idA, t0.Add(time.Second)) {
		t.Fatal("holder's heartbeat rejected")
	}
	if q.Heartbeat("w2", idA, t0) {
		t.Fatal("non-holder's heartbeat accepted")
	}
	if !q.Complete("w1", idA, true, "") {
		t.Fatal("holder's completion rejected")
	}
	second := q.Claim("w1", t0)
	if second == nil || second.ID != idB {
		t.Fatalf("claim = %+v, want %s", second, idB)
	}
	if !q.Complete("w1", idB, false, "boom") {
		t.Fatal("failure completion rejected")
	}
	if c := q.Counts(); c.Done != 1 || c.Failed != 1 || c.Pending != 0 || c.Leased != 0 {
		t.Fatalf("counts = %+v, want 1 done, 1 failed", c)
	}
	for _, j := range q.Jobs() {
		if j.ID == idB && j.Error != "boom" {
			t.Fatalf("failed job error = %q, want boom", j.Error)
		}
	}
}

func TestQueueLeaseExpiryRequeuesAndDropsLateCompletion(t *testing.T) {
	q := NewQueue(100*time.Millisecond, 0)
	ids, _ := q.Submit(queueSpec(workload.Verilator, 0))
	id := ids[0]
	t0 := time.Unix(1000, 0)
	if q.Claim("ghost", t0) == nil {
		t.Fatal("claim failed")
	}
	if got := q.ExpireLeases(t0.Add(50 * time.Millisecond)); got != nil {
		t.Fatalf("expired %v before the deadline", got)
	}
	expired := q.ExpireLeases(t0.Add(200 * time.Millisecond))
	if len(expired) != 1 || expired[0] != [2]string{id, "ghost"} {
		t.Fatalf("expired = %v, want [[%s ghost]]", expired, id)
	}
	// The lost worker's late completion must be dropped...
	if q.Complete("ghost", id, true, "") {
		t.Fatal("late completion from the expired holder accepted")
	}
	// ...and the job is pending again for the next claimer.
	if got := q.Claim("w1", t0.Add(250*time.Millisecond)); got == nil || got.ID != id {
		t.Fatalf("claim = %+v, want requeued %s", got, id)
	}
	for _, j := range q.Jobs() {
		if j.ID == id && j.Requeues != 1 {
			t.Fatalf("requeues = %d, want 1", j.Requeues)
		}
	}
}

func TestQueueFailsAfterMaxRequeues(t *testing.T) {
	q := NewQueue(10*time.Millisecond, 2)
	ids, _ := q.Submit(queueSpec(workload.Verilator, 0))
	id := ids[0]
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		if q.Claim("ghost", now) == nil {
			t.Fatalf("claim %d failed", i)
		}
		now = now.Add(time.Second)
		if len(q.ExpireLeases(now)) != 1 {
			t.Fatalf("expiry %d did not fire", i)
		}
	}
	if c := q.Counts(); c.Failed != 1 || c.Pending != 0 {
		t.Fatalf("counts = %+v, want the job failed after 3 expiries", c)
	}
	for _, j := range q.Jobs() {
		if j.ID == id && !strings.Contains(j.Error, "lease expired") {
			t.Fatalf("error = %q, want a lease-expiry message", j.Error)
		}
	}
}
