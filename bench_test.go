// Macro-benchmarks: one per table and figure of the paper, each
// regenerating its experiment at a reduced scale (three representative
// applications, small simulation windows). `go test -bench=. -benchmem`
// therefore exercises every experiment end to end; use
// `go run ./cmd/experiments` for full-scale numbers and readable tables.
//
// Micro-benchmarks for the hot structures (BTB, cache hierarchy,
// executor, whole pipeline) follow at the bottom; their ns/op numbers
// are the simulator's capacity planning (instructions simulated per
// second).
package twig_test

import (
	"bytes"
	"io"
	"testing"

	"twig"
	"twig/internal/bpu"
	"twig/internal/btb"
	"twig/internal/cache"
	"twig/internal/core"
	"twig/internal/exec"
	"twig/internal/experiments"
	"twig/internal/isa"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
	"twig/internal/trace"
	"twig/internal/workload"
)

// benchWindow keeps each experiment iteration around a second.
const benchWindow = 150_000

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(io.Discard, benchWindow)
		ctx.Apps = []workload.App{workload.Cassandra, workload.Verilator, workload.WordPress}
		if err := ctx.RunOne(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01FrontendBound(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkFig02LimitStudy(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkFig03BTBMPKI(b *testing.B)          { benchExperiment(b, "fig3") }
func BenchmarkFig04MissClass(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFig05CapacityVsSize(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig06ConflictVsAssoc(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig07AccessBreakdown(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig08MissBreakdown(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig09PriorWork(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10TemporalStreams(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11UncondWorkingSet(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12SpatialRange(b *testing.B)     { benchExperiment(b, "fig12") }
func BenchmarkFig13InjectionExample(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14BranchOffsetCDF(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkFig15TargetOffsetCDF(b *testing.B)  { benchExperiment(b, "fig15") }
func BenchmarkTable1Parameters(b *testing.B)      { benchExperiment(b, "tab1") }
func BenchmarkFig16Speedup(b *testing.B)          { benchExperiment(b, "fig16") }
func BenchmarkFig17Coverage(b *testing.B)         { benchExperiment(b, "fig17") }
func BenchmarkFig18Contribution(b *testing.B)     { benchExperiment(b, "fig18") }
func BenchmarkFig19Accuracy(b *testing.B)         { benchExperiment(b, "fig19") }
func BenchmarkFig20CrossInput(b *testing.B)       { benchExperiment(b, "fig20") }
func BenchmarkTable2CrossInputStats(b *testing.B) { benchExperiment(b, "tab2") }
func BenchmarkFig21StaticOverhead(b *testing.B)   { benchExperiment(b, "fig21") }
func BenchmarkFig22DynamicOverhead(b *testing.B)  { benchExperiment(b, "fig22") }
func BenchmarkTable3WorkingSet(b *testing.B)      { benchExperiment(b, "tab3") }
func BenchmarkFig23BTBSizeSweep(b *testing.B)     { benchExperiment(b, "fig23") }
func BenchmarkFig24AssocSweep(b *testing.B)       { benchExperiment(b, "fig24") }
func BenchmarkFig25PrefetchBuffer(b *testing.B)   { benchExperiment(b, "fig25") }
func BenchmarkFig26PrefetchDistance(b *testing.B) { benchExperiment(b, "fig26") }
func BenchmarkFig27CoalesceBitmask(b *testing.B)  { benchExperiment(b, "fig27") }
func BenchmarkFig28FTQSweep(b *testing.B)         { benchExperiment(b, "fig28") }
func BenchmarkAblationSites(b *testing.B)         { benchExperiment(b, "ablation-sites") }
func BenchmarkAblationMinProb(b *testing.B)       { benchExperiment(b, "ablation-minprob") }
func BenchmarkAblationSampling(b *testing.B)      { benchExperiment(b, "ablation-sampling") }
func BenchmarkAblationTAGE(b *testing.B)          { benchExperiment(b, "ablation-tage") }
func BenchmarkExtPriorWork(b *testing.B)          { benchExperiment(b, "ext-priorwork") }
func BenchmarkExtCompressedBTB(b *testing.B)      { benchExperiment(b, "ext-compressed") }
func BenchmarkExtLayoutPGO(b *testing.B)          { benchExperiment(b, "ext-layout") }
func BenchmarkAblationReplacement(b *testing.B)   { benchExperiment(b, "ablation-replacement") }

// ---- Micro-benchmarks -------------------------------------------------

func BenchmarkBTBLookupHit(b *testing.B) {
	t := btb.New(btb.DefaultConfig())
	for pc := uint64(0); pc < 4096; pc++ {
		t.Insert(pc*7+0x400000, pc*13, isa.KindCondBranch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(uint64(i%4096)*7 + 0x400000)
	}
}

func BenchmarkBTBInsertEvict(b *testing.B) {
	t := btb.New(btb.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(uint64(i)*31+0x400000, uint64(i), isa.KindJump)
	}
}

func BenchmarkCacheHierarchyFetch(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultHierarchy())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Fetch(uint64(i % 8192))
	}
}

func BenchmarkExecutor(b *testing.B) {
	params := workload.MustParams(workload.Cassandra)
	p, err := workload.Build(params)
	if err != nil {
		b.Fatal(err)
	}
	ex, err := exec.New(p, params.Input(0))
	if err != nil {
		b.Fatal(err)
	}
	var st exec.Step
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Next(&st)
	}
}

// BenchmarkExecutorBatch measures slab-at-a-time step delivery
// (exec.BatchSource.NextBatch), the refill path the pipeline's consume
// loop and the stepcast broadcast producer both use.
func BenchmarkExecutorBatch(b *testing.B) {
	params := workload.MustParams(workload.Cassandra)
	p, err := workload.Build(params)
	if err != nil {
		b.Fatal(err)
	}
	ex, err := exec.New(p, params.Input(0))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]exec.Step, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += len(buf) {
		want := len(buf)
		if rem := b.N - n; rem < want {
			want = rem
		}
		ex.NextBatch(buf[:want])
	}
}

func BenchmarkPipelineBaseline(b *testing.B) {
	params := workload.MustParams(workload.Cassandra)
	p, err := workload.Build(params)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.BackendCPI = params.BackendCPI
	cfg.CondMispredictRate = params.CondMispredictRate
	cfg.MaxInstructions = int64(b.N)
	if cfg.MaxInstructions < 1000 {
		cfg.MaxInstructions = 1000
	}
	cfg.Scheme = prefetcher.NewBaseline(btb.DefaultConfig(), 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := pipeline.Run(p, params.Input(0), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(res.IPC(), "sim-IPC")
}

// benchArtifacts builds the trained cassandra artifacts once and reuses
// them across b.N re-runs (BuildAndOptimize dominates setup otherwise).
var benchArt struct {
	art  *core.Artifacts
	opts core.Options
	err  error
	done bool
}

func benchArtifacts(b *testing.B) (*core.Artifacts, core.Options) {
	if !benchArt.done {
		opts := core.DefaultOptions()
		opts.ProfileInstructions = 500_000
		art, err := core.BuildAndOptimize(workload.Cassandra, 0, opts)
		benchArt.art, benchArt.opts, benchArt.err = art, opts, err
		benchArt.done = true
	}
	if benchArt.err != nil {
		b.Fatal(benchArt.err)
	}
	return benchArt.art, benchArt.opts
}

// BenchmarkPipelineTwig measures the per-instruction cost of the full
// Twig configuration: optimized binary, baseline BTB plus the
// architectural prefetch buffer consuming injected prefetches.
func BenchmarkPipelineTwig(b *testing.B) {
	art, opts := benchArtifacts(b)
	cfg := pipeline.DefaultConfig()
	cfg.BackendCPI = art.Params.BackendCPI
	cfg.CondMispredictRate = art.Params.CondMispredictRate
	cfg.MaxInstructions = int64(b.N)
	if cfg.MaxInstructions < 1000 {
		cfg.MaxInstructions = 1000
	}
	cfg.Scheme = prefetcher.NewBaseline(opts.BTB, opts.PrefetchBuffer, false)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := pipeline.Run(art.Optimized, art.Input(0), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(res.IPC(), "sim-IPC")
}

// BenchmarkPipelineShotgun measures the per-instruction cost of the
// Shotgun scheme (unmodified binary, spatial-footprint prefetching,
// 1536-entry RAS).
func BenchmarkPipelineShotgun(b *testing.B) {
	art, _ := benchArtifacts(b)
	cfg := pipeline.DefaultConfig()
	cfg.BackendCPI = art.Params.BackendCPI
	cfg.CondMispredictRate = art.Params.CondMispredictRate
	cfg.RASEntries = 1536
	cfg.MaxInstructions = int64(b.N)
	if cfg.MaxInstructions < 1000 {
		cfg.MaxInstructions = 1000
	}
	cfg.Scheme = prefetcher.NewShotgun(prefetcher.DefaultShotgunConfig())
	b.ReportAllocs()
	b.ResetTimer()
	res, err := pipeline.Run(art.Program, art.Input(0), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(res.IPC(), "sim-IPC")
}

// BenchmarkPipelineHierarchy measures the per-instruction cost of the
// two-level BTB (Micro-BTB-style last level behind the L1, miss-fill
// and promotion traffic on the lookup path).
func BenchmarkPipelineHierarchy(b *testing.B) {
	art, opts := benchArtifacts(b)
	cfg := pipeline.DefaultConfig()
	cfg.BackendCPI = art.Params.BackendCPI
	cfg.CondMispredictRate = art.Params.CondMispredictRate
	cfg.MaxInstructions = int64(b.N)
	if cfg.MaxInstructions < 1000 {
		cfg.MaxInstructions = 1000
	}
	hcfg := btb.DefaultHierarchyConfig()
	hcfg.L1 = opts.BTB
	cfg.Scheme = prefetcher.NewHierarchy(hcfg)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := pipeline.Run(art.Program, art.Input(0), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(res.IPC(), "sim-IPC")
}

// BenchmarkPipelineShadow measures the per-instruction cost of the
// shadow-branch scheme (per-fetched-line predecode feeding the shadow
// branch buffer).
func BenchmarkPipelineShadow(b *testing.B) {
	art, opts := benchArtifacts(b)
	cfg := pipeline.DefaultConfig()
	cfg.BackendCPI = art.Params.BackendCPI
	cfg.CondMispredictRate = art.Params.CondMispredictRate
	cfg.MaxInstructions = int64(b.N)
	if cfg.MaxInstructions < 1000 {
		cfg.MaxInstructions = 1000
	}
	scfg := prefetcher.DefaultShadowConfig()
	scfg.BTB = opts.BTB
	cfg.Scheme = prefetcher.NewShadow(scfg)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := pipeline.Run(art.Program, art.Input(0), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(res.IPC(), "sim-IPC")
}

func BenchmarkTAGEPredict(b *testing.B) {
	tg := bpu.NewTAGE(bpu.DefaultTAGEConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tg.PredictAndUpdate(uint64(0x400000+(i%997)*8), i%3 != 0)
	}
}

func BenchmarkTraceRecordReplay(b *testing.B) {
	params := workload.MustParams(workload.Kafka)
	params.Scale = 0.03
	p, err := workload.Build(params)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Record(&buf, p, params.Input(0), 100_000); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := trace.NewReader(bytes.NewReader(data), p)
		if err != nil {
			b.Fatal(err)
		}
		var st exec.Step
		for j := 0; j < 100_000; j++ {
			rd.Next(&st)
		}
	}
}

// BenchmarkTraceReplayBatch is BenchmarkTraceRecordReplay's batched
// twin: the reader decodes each taken-branch run once per slab refill
// instead of once per instruction.
func BenchmarkTraceReplayBatch(b *testing.B) {
	params := workload.MustParams(workload.Kafka)
	params.Scale = 0.03
	p, err := workload.Build(params)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Record(&buf, p, params.Input(0), 100_000); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := trace.NewReader(bytes.NewReader(data), p)
		if err != nil {
			b.Fatal(err)
		}
		slab := make([]exec.Step, 2048)
		for j := 0; j < 100_000; j += len(slab) {
			rd.NextBatch(slab)
		}
	}
}

// BenchmarkNewSystem measures twig.NewSystem for cassandra: build,
// profile, analyze and relink. Every iteration collects an equal
// profile, so from the second on the analysis reuses the first's site
// selection, as any process that builds one app twice does; the cold
// analysis alone is internal/twigopt's BenchmarkTwigoptAnalyze.
func BenchmarkNewSystem(b *testing.B) {
	cfg := twig.DefaultConfig()
	cfg.Instructions = benchWindow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := twig.NewSystem(twig.Cassandra, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
