package twigd

import (
	"fmt"
	"sync"
	"time"
)

// Job lease states. The lifecycle is
//
//	pending ──claim──▶ leased ──complete──▶ done | failed
//	   ▲                  │
//	   └──lease expiry────┘  (requeued up to maxRequeues times,
//	                          then failed)
const (
	StatePending = "pending"
	StateLeased  = "leased"
	StateDone    = "done"
	StateFailed  = "failed"
)

// DefaultMaxRequeues bounds how many times a job survives losing its
// worker before it is failed outright — a job that kills every worker
// that touches it must not wedge the queue forever.
const DefaultMaxRequeues = 3

type queueEntry struct {
	spec     JobSpec
	state    string
	worker   string    // lease holder while leased
	expiry   time.Time // lease deadline while leased
	requeues int
	err      string
}

// Queue is the coordinator's job queue: submission-ordered, leased to
// workers under a TTL, with expiry-driven reassignment. Safe for
// concurrent use. Time flows in through the `now` arguments so tests
// control the clock.
type Queue struct {
	mu          sync.Mutex
	ttl         time.Duration
	maxRequeues int
	jobs        map[string]*queueEntry
	order       []string
}

// NewQueue returns a queue issuing leases of the given TTL.
func NewQueue(ttl time.Duration, maxRequeues int) *Queue {
	if maxRequeues <= 0 {
		maxRequeues = DefaultMaxRequeues
	}
	return &Queue{
		ttl:         ttl,
		maxRequeues: maxRequeues,
		jobs:        make(map[string]*queueEntry),
	}
}

// TTL returns the lease TTL.
func (q *Queue) TTL() time.Duration { return q.ttl }

// Submit enqueues a batch of specs all-or-nothing: every spec is
// validated before any is queued, so a rejected batch leaves the queue
// untouched. A spec without an ID gets its canonical Key. Submission
// is idempotent: a spec whose ID is already queued (in any state)
// returns the existing ID untouched, so a client retrying a submit —
// or two clients submitting the same matrix — never duplicates work.
// The returned IDs are parallel to specs.
func (q *Queue) Submit(specs ...JobSpec) ([]string, error) {
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	ids := make([]string, len(specs))
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, spec := range specs {
		if spec.ID == "" {
			spec.ID = spec.Key()
		}
		ids[i] = spec.ID
		if _, ok := q.jobs[spec.ID]; ok {
			continue
		}
		q.jobs[spec.ID] = &queueEntry{spec: spec, state: StatePending}
		q.order = append(q.order, spec.ID)
	}
	return ids, nil
}

// Claim leases the first pending job, in submission order, to the
// worker. It returns nil when nothing is pending.
func (q *Queue) Claim(worker string, now time.Time) *JobSpec {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, id := range q.order {
		e := q.jobs[id]
		if e.state != StatePending {
			continue
		}
		e.state = StateLeased
		e.worker = worker
		e.expiry = now.Add(q.ttl)
		spec := e.spec
		return &spec
	}
	return nil
}

// Heartbeat extends the lease the worker holds on the job. It returns
// false when the lease is gone — expired and reassigned, or completed
// by someone else — telling the worker to abandon the attempt.
func (q *Queue) Heartbeat(worker, id string, now time.Time) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.jobs[id]
	if !ok || e.state != StateLeased || e.worker != worker {
		return false
	}
	e.expiry = now.Add(q.ttl)
	return true
}

// Complete settles the lease the worker holds: done on ok, failed
// otherwise. It returns false when the worker no longer holds the
// lease (the settlement is dropped — the job's fate belongs to the
// current holder, and any blobs the late worker uploaded are harmless
// because they are content-addressed).
func (q *Queue) Complete(worker, id string, ok bool, errMsg string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	e, found := q.jobs[id]
	if !found || e.state != StateLeased || e.worker != worker {
		return false
	}
	e.worker = ""
	if ok {
		e.state = StateDone
		return true
	}
	e.state = StateFailed
	e.err = errMsg
	return true
}

// ExpireLeases requeues every lease whose deadline has passed —
// the lost-worker path — and returns the (job, worker) pairs that
// expired so the coordinator can clear worker lease fields. A job
// that has already been requeued maxRequeues times fails instead.
func (q *Queue) ExpireLeases(now time.Time) [][2]string {
	q.mu.Lock()
	defer q.mu.Unlock()
	var expired [][2]string
	for _, id := range q.order {
		e := q.jobs[id]
		if e.state != StateLeased || now.Before(e.expiry) {
			continue
		}
		expired = append(expired, [2]string{id, e.worker})
		e.worker = ""
		e.requeues++
		if e.requeues > q.maxRequeues {
			e.state = StateFailed
			e.err = fmt.Sprintf("lease expired %d times (worker lost?)", e.requeues)
		} else {
			e.state = StatePending
		}
	}
	return expired
}

// Counts returns the state histogram.
func (q *Queue) Counts() QueueCounts {
	q.mu.Lock()
	defer q.mu.Unlock()
	var c QueueCounts
	for _, e := range q.jobs {
		switch e.state {
		case StatePending:
			c.Pending++
		case StateLeased:
			c.Leased++
		case StateDone:
			c.Done++
		case StateFailed:
			c.Failed++
		}
	}
	return c
}

// Jobs snapshots every entry in submission order.
func (q *Queue) Jobs() []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobStatus, 0, len(q.order))
	for _, id := range q.order {
		e := q.jobs[id]
		out = append(out, JobStatus{
			ID:       id,
			App:      string(e.spec.App),
			Input:    e.spec.Input,
			State:    e.state,
			Worker:   e.worker,
			Requeues: e.requeues,
			Error:    e.err,
		})
	}
	return out
}
