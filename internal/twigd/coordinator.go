package twigd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultLeaseTTL is the coordinator's default lease duration. It
// bounds how long a lost worker can sit on a job before it is
// reassigned; workers heartbeat at TTL/3, so transient stalls several
// times the heartbeat interval survive.
const DefaultLeaseTTL = 15 * time.Second

// maxBlobBytes bounds one blob upload (a training profile of a large
// window is megabytes; a result envelope is kilobytes).
const maxBlobBytes = 1 << 30

// workerInfo is the coordinator's view of one registered worker.
type workerInfo struct {
	name         string
	slots        int
	lastSeen     time.Time
	lease        string
	done, failed int64
	instructions int64
}

// Server is the twigd coordinator: the runner's job queue and result
// cache served over HTTP. One Server owns a Queue and a BlobStore;
// handlers are safe for concurrent use.
type Server struct {
	queue *Queue
	blobs BlobStore

	mu      sync.Mutex
	workers map[string]*workerInfo
}

// NewServer returns a coordinator issuing leases of the given TTL
// (<= 0 means DefaultLeaseTTL) over the blob store.
func NewServer(blobs BlobStore, leaseTTL time.Duration) *Server {
	if leaseTTL <= 0 {
		leaseTTL = DefaultLeaseTTL
	}
	return &Server{
		queue:   NewQueue(leaseTTL, 0),
		blobs:   blobs,
		workers: make(map[string]*workerInfo),
	}
}

// Queue exposes the server's queue (tests and in-process embedding).
func (s *Server) Queue() *Queue { return s.queue }

// Blobs exposes the server's blob store.
func (s *Server) Blobs() BlobStore { return s.blobs }

// ExpireNow runs one lease-expiry sweep immediately and returns how
// many leases were reassigned. The background sweeper calls this every
// TTL/2; tests call it directly.
func (s *Server) ExpireNow() int {
	expired := s.queue.ExpireLeases(time.Now())
	if len(expired) == 0 {
		return 0
	}
	s.mu.Lock()
	for _, jw := range expired {
		if w, ok := s.workers[jw[1]]; ok && w.lease == jw[0] {
			w.lease = ""
		}
	}
	s.mu.Unlock()
	return len(expired)
}

// Handler returns the coordinator's HTTP handler:
//
//	POST /v1/register   worker hello
//	POST /v1/claim      lease one job
//	POST /v1/heartbeat  extend a lease, report progress
//	POST /v1/complete   settle a lease
//	POST /v1/submit     enqueue jobs
//	GET  /v1/status     queue counts + alive workers
//	GET  /v1/jobs       per-job states
//	GET  /blob/{hash}   download an envelope (404 = miss)
//	PUT  /blob/{hash}   upload an envelope
//	GET  /debug/fleet   FleetStatus for dashboards
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", s.handleRegister)
	mux.HandleFunc("/v1/claim", s.handleClaim)
	mux.HandleFunc("/v1/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("/v1/complete", s.handleComplete)
	mux.HandleFunc("/v1/submit", s.handleSubmit)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/blob/", s.handleBlob)
	mux.HandleFunc("/debug/fleet", s.handleFleet)
	return mux
}

// Start listens on addr (":0" picks a free port), serves the handler,
// and runs the lease-expiry sweeper until stop is called. It returns
// the bound address.
func (s *Server) Start(addr string) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("twigd: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(s.queue.TTL() / 2)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.ExpireNow()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return ln.Addr().String(), func() {
		once.Do(func() {
			close(done)
			srv.Close()
		})
	}, nil
}

// touch records a sighting of a worker (auto-registering unknown
// names, so a coordinator restart does not orphan a running fleet).
func (s *Server) touch(name string) *workerInfo {
	w, ok := s.workers[name]
	if !ok {
		w = &workerInfo{name: name, slots: 1}
		s.workers[name] = w
	}
	w.lastSeen = time.Now()
	return w
}

// aliveWindow is how stale a worker's last sighting may be before the
// fleet view reports it dead (its leases expire on their own TTL).
func (s *Server) aliveWindow() time.Duration { return 3 * s.queue.TTL() }

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "register: empty worker name")
		return
	}
	s.mu.Lock()
	info := s.touch(req.Worker)
	if req.Slots > 0 {
		info.slots = req.Slots
	}
	s.mu.Unlock()
	writeJSON(w, RegisterResponse{OK: true, LeaseTTLMs: s.queue.TTL().Milliseconds()})
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if !readJSON(w, r, &req) {
		return
	}
	s.ExpireNow() // reassign lost leases before answering "nothing to do"
	job := s.queue.Claim(req.Worker, time.Now())
	s.mu.Lock()
	info := s.touch(req.Worker)
	if job != nil {
		info.lease = job.ID
	}
	s.mu.Unlock()
	writeJSON(w, ClaimResponse{Job: job, LeaseTTLMs: s.queue.TTL().Milliseconds()})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	ok := s.queue.Heartbeat(req.Worker, req.Job, time.Now())
	s.mu.Lock()
	info := s.touch(req.Worker)
	if req.Instructions > info.instructions {
		info.instructions = req.Instructions
	}
	if !ok && info.lease == req.Job {
		info.lease = ""
	}
	s.mu.Unlock()
	writeJSON(w, HeartbeatResponse{OK: ok})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !readJSON(w, r, &req) {
		return
	}
	ok := s.queue.Complete(req.Worker, req.Job, req.OK, req.Error)
	s.mu.Lock()
	info := s.touch(req.Worker)
	if info.lease == req.Job {
		info.lease = ""
	}
	if ok {
		if req.OK {
			info.done++
		} else {
			info.failed++
		}
	}
	if req.Instructions > info.instructions {
		info.instructions = req.Instructions
	}
	s.mu.Unlock()
	writeJSON(w, CompleteResponse{OK: ok})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !readJSON(w, r, &req) {
		return
	}
	ids, err := s.queue.Submit(req.Jobs...)
	if err != nil {
		httpError(w, http.StatusBadRequest, "submit: "+err.Error())
		return
	}
	writeJSON(w, SubmitResponse{IDs: ids})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.ExpireNow()
	alive := 0
	now := time.Now()
	s.mu.Lock()
	for _, info := range s.workers {
		if now.Sub(info.lastSeen) <= s.aliveWindow() {
			alive++
		}
	}
	s.mu.Unlock()
	writeJSON(w, StatusResponse{Queue: s.queue.Counts(), AliveWorkers: alive})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, JobsResponse{Jobs: s.queue.Jobs()})
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	s.ExpireNow()
	now := time.Now()
	s.mu.Lock()
	workers := make([]WorkerStatus, 0, len(s.workers))
	for _, info := range s.workers {
		workers = append(workers, WorkerStatus{
			Name:         info.name,
			Slots:        info.slots,
			Alive:        now.Sub(info.lastSeen) <= s.aliveWindow(),
			Lease:        info.lease,
			Done:         info.done,
			Failed:       info.failed,
			Instructions: info.instructions,
			IdleMs:       now.Sub(info.lastSeen).Milliseconds(),
		})
	}
	s.mu.Unlock()
	sort.Slice(workers, func(i, j int) bool { return workers[i].Name < workers[j].Name })
	writeJSON(w, FleetStatus{
		Queue:      s.queue.Counts(),
		Workers:    workers,
		Blobs:      s.blobs.Stats(),
		LeaseTTLMs: s.queue.TTL().Milliseconds(),
	})
}

func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	hash := strings.TrimPrefix(r.URL.Path, "/blob/")
	if !ValidHash(hash) {
		httpError(w, http.StatusBadRequest, "blob: malformed hash")
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, err := s.blobs.Get(hash)
		if errors.Is(err, ErrNoBlob) {
			httpError(w, http.StatusNotFound, "blob: not found")
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, "blob: "+err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case http.MethodPut, http.MethodPost:
		data, err := io.ReadAll(io.LimitReader(r.Body, maxBlobBytes))
		if err != nil {
			httpError(w, http.StatusBadRequest, "blob: "+err.Error())
			return
		}
		if err := s.blobs.Put(hash, data); err != nil {
			httpError(w, http.StatusInternalServerError, "blob: "+err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		httpError(w, http.StatusMethodNotAllowed, "blob: "+r.Method)
	}
}

// readJSON decodes one request body, answering 400 on malformed input
// and on fields the request type does not know: a request written for
// another protocol version is refused, not half-understood.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	http.Error(w, msg, code)
}
