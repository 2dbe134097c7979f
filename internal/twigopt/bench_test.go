package twigopt_test

import (
	"io"
	"testing"
	"time"

	"twig/internal/core"
	"twig/internal/experiments"
	"twig/internal/profile"
	"twig/internal/program"
	"twig/internal/twigopt"
	"twig/internal/workload"
)

// benchApps are the three footprint tiers perfbench measures.
var benchApps = []workload.App{workload.Verilator, workload.Cassandra, workload.WordPress}

// trainingProfile builds app's binary and its training profile at the
// experiments' default operating point (1M-instruction window, paper
// analysis parameters).
func trainingProfile(b *testing.B, app workload.App) (*program.Program, *profile.Profile, core.Options) {
	b.Helper()
	opts := experiments.NewContext(io.Discard, 1_000_000).Opts
	params, err := workload.ParamsFor(app)
	if err != nil {
		b.Fatal(err)
	}
	p, err := workload.Build(params)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := core.CollectProfile(p, params, 0, opts)
	if err != nil {
		b.Fatal(err)
	}
	return p, prof, opts
}

// BenchmarkTwigoptAnalyze measures one cold §3 analysis per app:
// twigopt.Analyze alone, with the selection table emptied before every
// call, so each call selects sites and encodes them. Run it with
// -benchmem for the per-call allocations.
func BenchmarkTwigoptAnalyze(b *testing.B) {
	for _, app := range benchApps {
		b.Run(string(app), func(b *testing.B) {
			p, prof, opts := trainingProfile(b, app)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				twigopt.ResetMemo()
				if _, err := twigopt.Analyze(p, prof, opts.Opt); err != nil {
					b.Fatal(err)
				}
			}
			reportPerSample(b, b.N, len(prof.Samples))
		})
	}
}

// BenchmarkTwigoptMaskSweep measures fig27's seven coalesce-mask widths
// on one profile per app. The selection is made before the timer
// starts, so every timed call is a warm one: the profile check, the
// digest and step 3. One op is the seven calls; ns/call is per call.
func BenchmarkTwigoptMaskSweep(b *testing.B) {
	widths := []int{1, 2, 4, 8, 16, 32, 64}
	for _, app := range benchApps {
		b.Run(string(app), func(b *testing.B) {
			p, prof, opts := trainingProfile(b, app)
			if _, err := twigopt.Analyze(p, prof, opts.Opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, w := range widths {
					cfg := opts.Opt
					cfg.CoalesceMaskBits = w
					if _, err := twigopt.Analyze(p, prof, cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportPerSample(b, b.N*len(widths), len(prof.Samples))
		})
	}
}

// reportPerSample reports the time per Analyze call and per profile
// sample, and the profile's sample count.
func reportPerSample(b *testing.B, calls, samples int) {
	b.StopTimer()
	perCall := float64(b.Elapsed()) / float64(calls)
	b.ReportMetric(perCall, "ns/call")
	b.ReportMetric(perCall/float64(samples)/float64(time.Microsecond), "µs/sample")
	b.ReportMetric(float64(samples), "samples")
}
