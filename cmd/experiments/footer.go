package main

import (
	"fmt"
	"strings"
	"time"

	"twig/internal/runner"
	"twig/internal/telemetry"
)

// ledgerFooter renders the post-run summary printed when a run ledger
// was collected: the five slowest jobs by their own time (the
// dependency waits excluded, so a run is not charged for the artifacts
// build it waited on), the queue-wait distribution, and the cache hit
// rate. The format is pinned by a golden-file test; durations round to
// milliseconds so the shape is stable even though the numbers are a
// run's own.
func ledgerFooter(led *telemetry.Ledger, stats runner.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- run ledger: %d spans ---\n", led.Len())

	if slow := led.SlowestByCat("job", 5); len(slow) > 0 {
		b.WriteString("slowest jobs:\n")
		for i, s := range slow {
			fmt.Fprintf(&b, "  %d. %-52s %10s\n", i+1, s.Span.Name(),
				s.Self.Round(time.Millisecond))
		}
	}

	waits := led.DurationsByName("queue.wait")
	fmt.Fprintf(&b, "queue wait: p50 %s, p95 %s (n=%d)\n",
		telemetry.Percentile(waits, 0.50).Round(time.Millisecond),
		telemetry.Percentile(waits, 0.95).Round(time.Millisecond),
		len(waits))

	hits := stats.SimHits + stats.ProfileHits + stats.DerivedHits + stats.OtherHits
	runs := stats.SimRuns + stats.ProfileRuns + stats.DerivedRuns + stats.OtherRuns
	fmt.Fprintf(&b, "cache hit rate: %.1f%% (%d cached, %d executed)\n",
		stats.HitRate()*100, hits, runs)
	return b.String()
}
