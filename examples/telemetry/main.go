// Telemetry: the observability layer end to end.
//
// One Cassandra run under Twig with every instrument attached: the
// metrics registry (exported as Prometheus text at the end), the epoch
// sampler (rendered as a per-epoch table), and the structured event
// tracer (streamed to a file, summarized here by record type).
//
//	go run ./examples/telemetry
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"os"

	"twig"
)

func main() {
	cfg := twig.DefaultConfig()
	cfg.Instructions = 500_000
	cfg.Epoch = 100_000       // snapshot every metric each 100k instructions
	cfg.CollectMetrics = true // keep the registry for WriteMetrics below

	var trace bytes.Buffer
	cfg.TraceWriter = &trace // JSON Lines event stream (btb_miss, resteer, ...)

	fmt.Println("building cassandra, profiling, analyzing, injecting...")
	sys, err := twig.NewSystem(twig.Cassandra, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	base, err := sys.Run("baseline", 0)
	if err != nil {
		log.Fatal(err)
	}
	trace.Reset() // keep only the optimized run's events
	opt, err := sys.Run("twig", 0)
	if err != nil {
		log.Fatal(err)
	}

	// The epoch time series: when within the run does Twig help?
	fmt.Printf("\n%-6s %8s %10s %10s %10s\n", "epoch", "IPC", "BTB-MPKI", "resteers", "cov%")
	for i, e := range opt.Epochs {
		cov := 0.0
		if i < len(base.Epochs) && base.Epochs[i].BTBMisses > 0 {
			cov = (1 - float64(e.BTBMisses)/float64(base.Epochs[i].BTBMisses)) * 100
		}
		fmt.Printf("%-6d %8.3f %10.2f %10d %+9.1f\n", e.Epoch, e.IPC, e.BTBMPKI, e.Resteers, cov)
	}

	// The event trace: count records by type.
	counts := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(trace.Bytes()))
	sc.Buffer(make([]byte, 1<<16), 1<<16)
	for sc.Scan() {
		line := sc.Bytes()
		if i := bytes.IndexByte(line, ':'); i >= 0 {
			if j := bytes.IndexByte(line[i+2:], '"'); j >= 0 {
				counts[string(line[i+2:i+2+j])]++
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nevent trace: %d bytes\n", trace.Len())
	for _, ev := range []string{"btb_miss", "resteer", "pf_issue", "pf_drop", "pf_use", "icache_miss", "epoch"} {
		fmt.Printf("  %-12s %7d\n", ev, counts[ev])
	}

	// The registry: final counters in Prometheus exposition format.
	fmt.Println("\nfinal /metrics exposition:")
	if err := sys.WriteMetrics(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
