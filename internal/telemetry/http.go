package telemetry

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
)

// LiveServer is the live stats endpoint. The simulation thread calls
// Update at each epoch boundary (or whenever it likes); Update renders
// the registry into immutable byte snapshots under a lock, and the HTTP
// handlers serve only those pre-rendered bytes — so the single-threaded
// simulator never shares mutable state with handler goroutines.
//
// Routes:
//
//	/metrics       Prometheus text exposition (namespace "twig")
//	/vars          expvar-style flat JSON of every metric
//	/series        JSON of the epoch time series sampled so far
//	/debug/pprof/  the stdlib runtime profiler (CPU, heap, goroutine…)
type LiveServer struct {
	mu      sync.RWMutex
	prom    []byte
	vars    []byte
	series  []byte
	updates int64

	srv *http.Server
	ln  net.Listener
}

// NewLiveServer returns a server with empty snapshots.
func NewLiveServer() *LiveServer { return &LiveServer{} }

// Update renders the current registry state (and, when non-nil, the
// epoch series) into the served snapshots.
func (s *LiveServer) Update(reg *Registry, series *Series) {
	var prom, vars bytes.Buffer
	WritePrometheus(&prom, reg, "twig")
	WriteVars(&vars, reg)
	var ser []byte
	if series != nil {
		ser = appendSeriesJSON(nil, series)
	}
	s.mu.Lock()
	s.prom = prom.Bytes()
	s.vars = vars.Bytes()
	if ser != nil {
		s.series = ser
	}
	s.updates++
	s.mu.Unlock()
}

// EpochPublisher is a Sink that publishes a fresh snapshot of Registry
// to Live at every epoch boundary. It runs on the simulation
// goroutine, so its gauge reads are race-free.
type EpochPublisher struct {
	NopSink
	Live     *LiveServer
	Registry *Registry
}

// EpochMark implements Sink.
func (p EpochPublisher) EpochMark(int64, int64, float64) { p.Live.Update(p.Registry, nil) }

// Updates returns how many snapshots have been published.
func (s *LiveServer) Updates() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.updates
}

// Handler returns the endpoint's mux.
func (s *LiveServer) Handler() http.Handler {
	mux := http.NewServeMux()
	serve := func(ct string, get func() []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			s.mu.RLock()
			body := get()
			s.mu.RUnlock()
			w.Header().Set("Content-Type", ct)
			w.Write(body)
		}
	}
	mux.Handle("/metrics", serve("text/plain; version=0.0.4; charset=utf-8", func() []byte { return s.prom }))
	mux.Handle("/vars", serve("application/json", func() []byte { return s.vars }))
	mux.Handle("/series", serve("application/json", func() []byte {
		if s.series == nil {
			return []byte("{}\n")
		}
		return s.series
	}))
	// Runtime profiling rides on the same endpoint: the stdlib pprof
	// handlers are stateless and safe alongside a running simulation,
	// and having them on the live port means one address serves both
	// "what is it doing" (/vars, /series) and "why is it slow"
	// (/debug/pprof/profile, /debug/pprof/heap).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "twig live stats: /metrics /vars /series /debug/pprof/\n")
	}))
	return mux
}

// Start listens on addr and serves the endpoint in a background
// goroutine. It returns the bound address (useful with ":0") and a stop
// function that closes the listener.
func (s *LiveServer) Start(addr string) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln)
	return ln.Addr().String(), func() { s.srv.Close() }, nil
}

// appendSeriesJSON renders a Series as one JSON object: epoch length,
// column names, per-epoch cumulative instruction counts, and per-column
// cumulative sample rows.
func appendSeriesJSON(buf []byte, s *Series) []byte {
	buf = append(buf, `{"epoch_length":`...)
	buf = strconv.AppendInt(buf, s.EpochLength, 10)
	buf = append(buf, `,"columns":[`...)
	for i, c := range s.Columns {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, c...)
		buf = append(buf, '"')
	}
	buf = append(buf, `],"instructions":[`...)
	for i, n := range s.Instructions {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, n, 10)
	}
	buf = append(buf, `],"base":[`...)
	for i, v := range s.Base {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendValue(buf, v)
	}
	buf = append(buf, `],"samples":[`...)
	for i, row := range s.Samples {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, v := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = appendValue(buf, v)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, "]}\n"...)
	return buf
}

// SeriesJSON renders the series as JSON (the /series payload).
func SeriesJSON(s *Series) []byte { return appendSeriesJSON(nil, s) }
