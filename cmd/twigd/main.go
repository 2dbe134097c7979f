// Command twigd runs the distributed-simulation coordinator: the
// runner's job queue and the fleet-wide remote result cache served
// over HTTP (see internal/twigd and DESIGN.md §12).
//
//	twigd -listen :9090 -blobs .twig-cache     # durable blob store
//	twigd -listen :9090                        # in-memory blobs
//	twigd -listen :9090 -lease 30s             # slower lease expiry
//
// Workers (cmd/twigworker) claim jobs from it. A client (twig.RunMatrix
// with Config.Coordinator, cmd/experiments -coordinator) attaches it
// once: its runner offers each Runner.Schemes call's cache misses as
// one job, waits for the job to settle, and reads the results back
// through the shared cache. Watch the fleet with
// `twigtop -url http://host:9090`.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"twig/internal/twigd"
)

func main() {
	var (
		listen  = flag.String("listen", ":9090", "coordinator listen address")
		blobDir = flag.String("blobs", "", "blob store directory (empty = in-memory; the layout is a runner cache dir)")
		lease   = flag.Duration("lease", twigd.DefaultLeaseTTL, "job lease TTL (lost workers are reassigned after this)")
	)
	flag.Parse()

	var blobs twigd.BlobStore
	if *blobDir != "" {
		dir, err := twigd.OpenDirBlobs(*blobDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "twigd:", err)
			os.Exit(1)
		}
		blobs = dir
		fmt.Fprintf(os.Stderr, "twigd: serving blobs from %s (%d present)\n", *blobDir, dir.Stats().Blobs)
	} else {
		blobs = twigd.NewMemBlobs()
		fmt.Fprintln(os.Stderr, "twigd: in-memory blob store (pass -blobs for durability)")
	}

	srv := twigd.NewServer(blobs, *lease)
	addr, stop, err := srv.Start(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "twigd:", err)
		os.Exit(1)
	}
	defer stop()
	fmt.Fprintf(os.Stderr, "twigd: coordinator on http://%s (lease TTL %s, fleet view at /debug/fleet)\n", addr, *lease)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	counts := srv.Queue().Counts()
	fmt.Fprintf(os.Stderr, "twigd: shutting down (%d done, %d failed, %d pending, %d leased; %d blobs)\n",
		counts.Done, counts.Failed, counts.Pending, counts.Leased, blobs.Stats().Blobs)
}
