package pipeline

import (
	"io"
	"testing"

	"twig/internal/btb"
	"twig/internal/prefetcher"
	"twig/internal/program"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// benchWorkload builds the default cassandra program the overhead
// budgets are specified against.
func benchWorkload(tb testing.TB) (*program.Program, workload.Params) {
	tb.Helper()
	params, err := workload.ParamsFor(workload.Cassandra)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := workload.Build(params)
	if err != nil {
		tb.Fatal(err)
	}
	return p, params
}

// benchConfig is the default 1M-instruction cassandra baseline — the
// configuration the observability overhead budget is specified against.
func benchConfig(tb testing.TB, telemetryOn bool) (Config, func() (*Result, error)) {
	tb.Helper()
	p, params := benchWorkload(tb)
	cfg := DefaultConfig()
	cfg.MaxInstructions = 1_000_000
	cfg.BackendCPI = params.BackendCPI
	cfg.CondMispredictRate = params.CondMispredictRate
	cfg.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	if telemetryOn {
		cfg.Telemetry.Registry = telemetry.NewRegistry()
		cfg.Telemetry.EpochLength = 100_000
		cfg.Telemetry.Tracer = telemetry.NewTracer(io.Discard)
	}
	return cfg, func() (*Result, error) { return Run(p, params.InputPhase(0, 1), cfg) }
}

// BenchmarkPipelineBaseline and BenchmarkPipelineTelemetry are the
// benchmark pair behind the overhead budget: compare their ns/op to see
// what full observability costs. The budget itself is asserted by
// TestTelemetryOverhead, which builds only with the benchgate tag.
func BenchmarkPipelineBaseline(b *testing.B) { benchmarkPipeline(b, false) }

// BenchmarkPipelineTelemetry runs the same simulation with the registry,
// epoch sampler, and event tracer (to io.Discard) all enabled.
func BenchmarkPipelineTelemetry(b *testing.B) { benchmarkPipeline(b, true) }

func benchmarkPipeline(b *testing.B, telemetryOn bool) {
	_, run := benchConfig(b, telemetryOn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}
