package twig_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"twig"
)

// TestLiveEndpointConcurrentScrape runs simulations while several
// goroutines hammer the live stats endpoint. Snapshots publish from
// the simulation thread at every epoch boundary and at run completion,
// so this is the test that makes `go test -race` exercise the
// publisher/scraper handoff. Each response must also be internally
// consistent — a torn snapshot would show up as malformed exposition
// text long before it shows up as a race report.
func TestLiveEndpointConcurrentScrape(t *testing.T) {
	cfg := smallConfig()
	cfg.Epoch = 10_000
	cfg.LiveAddr = "127.0.0.1:0"
	sys, err := twig.NewSystem(twig.Kafka, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	base := "http://" + sys.LiveAddr()

	done := make(chan struct{})
	var wg sync.WaitGroup
	scrapeErr := make(chan error, 1)
	for _, path := range []string{"/metrics", "/vars", "/series"} {
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
				if err != nil {
					select {
					case scrapeErr <- fmt.Errorf("reading %s: %w", path, err):
					default:
					}
					return
				}
				if resp.StatusCode != http.StatusOK {
					select {
					case scrapeErr <- fmt.Errorf("%s: status %d", path, resp.StatusCode):
					default:
					}
					return
				}
				if path == "/metrics" && len(body) > 0 && !strings.Contains(string(body), "twig_") {
					select {
					case scrapeErr <- fmt.Errorf("/metrics snapshot has no twig_ metrics:\n%s", body):
					default:
					}
					return
				}
			}
		}(path)
	}

	for i := 0; i < 3; i++ {
		if _, err := sys.Run("baseline", i%2); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run("twig", i%2); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	// After the runs, the endpoint serves the final snapshot.
	resp, err := http.Get(base + "/series")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "pipeline_cycles") {
		t.Fatalf("/series lacks the epoch columns:\n%s", body)
	}
}
