package pipeline_test

import (
	"fmt"
	"os"
	"testing"

	"twig/internal/core"
	"twig/internal/metrics"
	"twig/internal/workload"
)

func TestTwigEndToEnd(t *testing.T) {
	if os.Getenv("TWIG_CALIBRATE") == "" {
		t.Skip("set TWIG_CALIBRATE=1")
	}
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = 2_000_000
	fmt.Printf("%-16s %7s %7s %7s %7s %7s %8s %7s %7s %7s %7s\n",
		"app", "twig%", "ideal%", "shot%", "conf%", "%ideal", "cover%", "acc%", "statOH%", "dynOH%", "sites")
	for _, app := range workload.Apps() {
		art, err := core.BuildAndOptimize(app, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		base, _ := art.RunScheme("baseline", 0, opts)
		ideal, _ := art.RunScheme("ideal", 0, opts)
		tw, _ := art.RunScheme("twig", 0, opts)
		shot, _ := art.RunScheme("shotgun", 0, opts)
		conf, _ := art.RunScheme("confluence", 0, opts)
		sp := metrics.Speedup(base.IPC(), tw.IPC())
		spI := metrics.Speedup(base.IPC(), ideal.IPC())
		cover := metrics.Coverage(base.BTB.DirectMisses(), tw.BTB.DirectMisses())
		fmt.Printf("%-16s %7.1f %7.1f %7.1f %7.1f %8.1f %7.1f %7.1f %7.2f %7.2f %7d\n",
			app, sp, spI,
			metrics.Speedup(base.IPC(), shot.IPC()),
			metrics.Speedup(base.IPC(), conf.IPC()),
			metrics.PercentOfIdeal(sp, spI), cover,
			tw.Prefetch.Accuracy()*100,
			float64(art.Optimized.InjectedBytes())/float64(art.Program.TextBytes)*100,
			tw.DynamicOverhead()*100,
			len(art.Analysis.Placements))
	}
}
