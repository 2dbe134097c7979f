package experiments

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"twig/internal/runner"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// TestLiveScrapeDuringGroupedRun hardens the parallel live path: a
// grouped scheme run on a multi-worker runner (the cmd/experiments
// -listen -j N wiring — runner gauges published to a registry, a
// wall-clock sampler, a LiveServer) while goroutines scrape /metrics,
// /vars, /series, and the pprof endpoints. Under -race this is the
// test that exercises every publisher/scraper handoff at once: atomic
// gauge reads from the ticker, snapshot swaps in the server, and the
// stdlib profiler walking the heap while workers simulate.
func TestLiveScrapeDuringGroupedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows while scraping")
	}

	run := runner.New(runner.Options{Workers: 4, Ledger: telemetry.NewLedger()})
	var out bytes.Buffer
	ctx := NewContext(&out, 20_000)
	ctx.Apps = []workload.App{workload.Verilator}
	ctx.SetRunner(run)

	reg := telemetry.NewRegistry()
	run.PublishTo(reg)
	live := telemetry.NewLiveServer()
	addr, stop, err := live.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	// The cmd/experiments parallel wiring: sample the runner gauges on
	// a wall clock, instruction axis = cumulative elapsed milliseconds.
	sampler := telemetry.NewSampler(reg, 5)
	sampler.Begin()
	tick := time.NewTicker(5 * time.Millisecond)
	done := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		start := time.Now()
		for {
			select {
			case <-tick.C:
				sampler.Sample(time.Since(start).Milliseconds())
				live.Update(reg, sampler.Series())
			case <-done:
				return
			}
		}
	}()

	// Scrapers: the stats snapshots plus the pprof handlers that serve
	// promptly (profile and trace block for their sampling window, so
	// they are exercised elsewhere and skipped here).
	paths := []string{
		"/metrics", "/vars", "/series",
		"/debug/pprof/", "/debug/pprof/cmdline",
		"/debug/pprof/goroutine?debug=1", "/debug/pprof/heap",
	}
	scrapeErr := make(chan error, 1)
	var wg sync.WaitGroup
	for _, path := range paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(base + path)
				if err != nil {
					select {
					case scrapeErr <- fmt.Errorf("GET %s: %w", path, err):
					default:
					}
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					select {
					case scrapeErr <- fmt.Errorf("%s: status %d, read err %v", path, resp.StatusCode, err):
					default:
					}
					return
				}
				_ = body
			}
		}(path)
	}

	// A grouped broadcast run (baseline+ideal share a binary) plus an
	// independent scheme, so group claim/peel, stepcast, and plain jobs
	// all execute under scrape load.
	if _, err := ctx.Schemes(workload.Verilator, 0, "baseline", "ideal"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Scheme(workload.Verilator, 1, "twig"); err != nil {
		t.Fatal(err)
	}

	tick.Stop()
	close(done)
	wg.Wait()
	tickWG.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	// The final snapshot carries the runner gauges and the series.
	resp, err := http.Get(base + "/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"runner_jobs_done", "runner_sim_instructions", "runner_worker_00_busy_ms"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("/vars lacks %s:\n%s", want, body)
		}
	}
}
