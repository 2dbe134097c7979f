// Command twigworker runs one fleet worker: it claims simulation jobs
// from a twigd coordinator under expiring leases, executes them
// through the ordinary runner, and publishes results to the shared
// remote cache. Kill it any time — its lease expires and the
// coordinator reassigns the job.
//
//	twigworker -coordinator http://host:9090            # all cores
//	twigworker -coordinator http://host:9090 -j 4       # bounded pool
//	twigworker -coordinator http://host:9090 -cache dir # local disk tier too
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"twig/internal/runner"
	"twig/internal/twigd"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "coordinator base URL (required), e.g. http://127.0.0.1:9090")
		name        = flag.String("name", "", "worker name on the fleet view (default host-pid)")
		jobs        = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulations within one claimed job")
		cacheDir    = flag.String("cache", runner.DefaultCacheDir(), "local disk cache directory (default $"+runner.CacheDirEnv+"; empty = memory + remote only)")
		poll        = flag.Duration("poll", 200*time.Millisecond, "base interval between retries of a failed claim (backs off exponentially)")
	)
	flag.Parse()
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "twigworker: -coordinator is required")
		os.Exit(2)
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := &twigd.Worker{
		Client:   twigd.NewClient(*coordinator),
		Name:     *name,
		Jobs:     *jobs,
		CacheDir: *cacheDir,
		Poll:     *poll,
		Log:      os.Stderr,
	}
	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "twigworker:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "twigworker %s: stopped (%d jobs completed, %d instructions simulated)\n",
		*name, w.Completed(), w.Instructions())
}
