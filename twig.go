// Package twig is a from-scratch reproduction of "Twig: Profile-Guided
// BTB Prefetching for Data Center Applications" (Khan et al., MICRO
// 2021): a cycle-approximate decoupled-frontend CPU simulator with
// FDIP, the Twig profile→analyze→inject→run pipeline built around two
// new instructions (brprefetch and brcoalesce), the Shotgun and
// Confluence hardware-prefetcher baselines, and synthetic models of the
// paper's nine data-center applications.
//
// The package is a facade over the internal engine. Typical use:
//
//	sys, err := twig.NewSystem(twig.Cassandra, twig.DefaultConfig())
//	base, _ := sys.Run("baseline", 0)
//	opt, _ := sys.Run("twig", 0)
//	fmt.Printf("speedup: %+.1f%%\n", twig.Speedup(base, opt))
//
// Every run is deterministic: the same application, input number and
// configuration always produce the same numbers.
package twig

import (
	"context"
	"fmt"
	"io"
	"sync"

	"twig/internal/check"
	"twig/internal/core"
	"twig/internal/experiments"
	"twig/internal/metrics"
	"twig/internal/pipeline"
	"twig/internal/runner"
	"twig/internal/sampling"
	"twig/internal/telemetry"
	"twig/internal/twigd"
	"twig/internal/workload"
)

// App names one of the nine data-center applications the paper
// evaluates.
type App = workload.App

// The nine applications (§2 of the paper).
const (
	Cassandra      = workload.Cassandra
	Drupal         = workload.Drupal
	FinagleChirper = workload.FinagleChirper
	FinagleHTTP    = workload.FinagleHTTP
	Kafka          = workload.Kafka
	MediaWiki      = workload.MediaWiki
	Tomcat         = workload.Tomcat
	Verilator      = workload.Verilator
	WordPress      = workload.WordPress
)

// Apps returns all nine applications in the paper's order.
func Apps() []App { return workload.Apps() }

// Config selects the headline knobs of the machine and the Twig
// analysis. Zero values mean "paper default" (Table 1 machine, 8K-entry
// 4-way BTB, 20-cycle prefetch distance, 8-bit coalesce mask, 128-entry
// prefetch buffer).
type Config struct {
	// Instructions is the simulation window in original instructions.
	Instructions int64
	// BTBEntries / BTBWays size the baseline BTB.
	BTBEntries, BTBWays int
	// FTQSize is the decoupled frontend's run-ahead depth in fetch
	// regions.
	FTQSize int
	// PrefetchBuffer is Twig's architectural buffer capacity.
	PrefetchBuffer int
	// PrefetchDistance is the analysis' minimum site-to-miss distance
	// in cycles.
	PrefetchDistance float64
	// CoalesceMaskBits is the brcoalesce bitmask width.
	CoalesceMaskBits int
	// DisableCoalescing evaluates software BTB prefetching alone
	// (Fig. 18's first configuration).
	DisableCoalescing bool
	// SampleRate makes the profiler record every Nth BTB miss.
	SampleRate int
	// Epoch, when > 0, snapshots every metric each Epoch committed
	// original instructions; Result.Epochs then carries the per-epoch
	// statistics of each run.
	Epoch int64
	// TraceWriter, when non-nil, receives the structured event trace
	// (JSON Lines, one record per BTB miss, resteer, prefetch event,
	// I-cache miss, and epoch boundary) of every simulation run through
	// this system. Training runs are never traced.
	TraceWriter io.Writer
	// CollectMetrics publishes every run's counters into the System's
	// metrics registry (System.WriteMetrics renders it). Implied by
	// Epoch > 0 and LiveAddr != "". Gauges read the most recent run;
	// histograms accumulate across runs, matching Prometheus' cumulative
	// convention.
	CollectMetrics bool
	// LiveAddr, when non-empty, serves the live stats endpoint
	// (/metrics, /vars, /series) on this address — e.g. ":8080", or
	// ":0" to pick a free port (System.LiveAddr returns the bound
	// address). Snapshots publish at every epoch boundary and when a
	// run completes; System.Close stops the listener.
	LiveAddr string
	// Check verifies every simulation run against the internal/check
	// verification layer before returning its Result: sink-observed
	// event counts must match the Result's counters, the telemetry
	// registry must agree with the Result, and the epoch series must be
	// additive. A violated law fails the run with an error. Binaries
	// built with the twigcheck tag check every run regardless of this
	// knob (and additionally assert per-instruction pipeline
	// invariants). See TESTING.md.
	Check bool
	// Jobs bounds RunMatrix's worker pool; <= 0 means GOMAXPROCS.
	// Results are byte-identical regardless of the worker count.
	Jobs int
	// CacheDir roots RunMatrix's persistent result cache; "" falls back
	// to $TWIG_CACHE_DIR (no disk cache when that is also empty). A warm
	// cache replays the whole matrix — including training profiles —
	// without executing a single simulation.
	CacheDir string
	// Coordinator, when non-empty, is a twigd coordinator's base URL
	// (e.g. "http://host:9090"). RunMatrix then attaches the
	// coordinator's blob store as the cache's remote tier, submits the
	// matrix to the fleet, waits for it to drain, and replays the
	// fleet's results as remote cache hits — byte-identical to a local
	// run, for any worker count. An unreachable coordinator or a fleet
	// with no alive workers degrades gracefully to local execution.
	// Cells carrying observable telemetry (TraceWriter) are never
	// distributed.
	Coordinator string
	// Sample configures interval-sampled estimation (System.Sampled):
	// instead of simulating the whole window in detail, measured
	// intervals are simulated exactly and everything between is
	// functionally fast-forwarded, yielding IPC/MPKI/coverage estimates
	// with confidence intervals at a fraction of the work. The zero
	// value disables sampling; exact runs never consult it.
	Sample SampleConfig
}

// SampleConfig mirrors internal/sampling.Spec on the public facade.
type SampleConfig struct {
	// Interval is the measured interval length in instructions.
	Interval int64
	// Period measures one interval of every Period (sampled fraction
	// 1/Period).
	Period int
	// Seed, when non-zero, picks measured intervals uniformly at random
	// (seeded, deterministic); zero picks systematically.
	Seed uint64
	// Warmup is the detailed per-interval warmup in instructions.
	Warmup int64
	// Confidence is the two-sided CI level: 0.90, 0.95 or 0.99 (zero
	// means 0.95).
	Confidence float64
}

// Enabled reports whether the configuration requests sampling.
func (c SampleConfig) Enabled() bool { return c.Interval > 0 && c.Period > 0 }

// DefaultConfig returns the paper's operating point with a window sized
// for interactive use.
func DefaultConfig() Config {
	return Config{Instructions: 1_000_000}
}

// simConfig projects the Config onto the serializable operating point
// twigd ships to fleet workers. options() below delegates to its
// Options() mapping, so a worker decoding this struct reconstructs
// exactly the core.Options this process evaluates under — the content
// hashes line up by construction.
func (c Config) simConfig() twigd.SimConfig {
	return twigd.SimConfig{
		Instructions:      c.Instructions,
		BTBEntries:        c.BTBEntries,
		BTBWays:           c.BTBWays,
		FTQSize:           c.FTQSize,
		PrefetchBuffer:    c.PrefetchBuffer,
		PrefetchDistance:  c.PrefetchDistance,
		CoalesceMaskBits:  c.CoalesceMaskBits,
		DisableCoalescing: c.DisableCoalescing,
		SampleRate:        c.SampleRate,
		Epoch:             c.Epoch,
		Sample: sampling.Spec{
			Interval:   c.Sample.Interval,
			Period:     c.Sample.Period,
			Seed:       c.Sample.Seed,
			Warmup:     c.Sample.Warmup,
			Confidence: c.Sample.Confidence,
		},
	}
}

func (c Config) options() core.Options {
	opts := c.simConfig().Options()
	if c.TraceWriter != nil {
		opts.Telemetry.Tracer = telemetry.NewTracer(c.TraceWriter)
	}
	return opts
}

// Result summarizes one simulation run.
type Result struct {
	// Instructions is the original-instruction count of the window;
	// Cycles the simulated cycles; IPC their ratio (injected prefetch
	// instructions execute but do not count as work).
	Instructions int64
	Cycles       float64
	IPC          float64
	// BTBMPKI is direct-branch BTB misses per kilo-instruction.
	BTBMPKI float64
	// BTBMisses and BTBAccesses are the direct-branch demand counts.
	BTBMisses, BTBAccesses int64
	// FrontendBoundFrac approximates the Top-Down frontend-bound share.
	FrontendBoundFrac float64
	// PrefetchIssued/Used and PrefetchAccuracy describe BTB prefetch
	// effectiveness (zero for schemes that do not prefetch).
	PrefetchIssued, PrefetchUsed int64
	PrefetchAccuracy             float64
	// DynamicOverhead is the injected-instruction share (Twig runs).
	DynamicOverhead float64
	// ICacheMPKI is L1i demand misses per kilo-instruction.
	ICacheMPKI float64
	// Epochs is the run's per-epoch time series (nil unless
	// Config.Epoch > 0). The final epoch may be partial.
	Epochs []EpochStats
}

// EpochStats is one epoch of a run's time series.
type EpochStats struct {
	// Epoch is the 1-based epoch number.
	Epoch int
	// Instructions and Cycles are the epoch-local counts; IPC their
	// ratio.
	Instructions int64
	Cycles       float64
	IPC          float64
	// BTBMisses is the epoch's direct-branch demand BTB misses, BTBMPKI
	// the per-kilo-instruction rate.
	BTBMisses int64
	BTBMPKI   float64
	// Resteers is the epoch's decode-time BTB resteers.
	Resteers int64
	// ICacheMisses is the epoch's demand L1i misses.
	ICacheMisses int64
	// CoveredMisses is the epoch's would-be BTB misses served from the
	// prefetch buffer (zero for schemes without one).
	CoveredMisses int64
}

// epochsFromSeries folds the sampled registry series into per-epoch
// deltas. Delta is snapshot-minus-snapshot, so it is exact for both the
// warm-adjusted pipeline gauges and the raw cumulative structure
// counters.
func epochsFromSeries(s *telemetry.Series) []EpochStats {
	if s == nil || s.Len() == 0 {
		return nil
	}
	cyc := s.Col("pipeline_cycles")
	miss := s.Col("btb_direct_misses")
	rst := s.Col("pipeline_btb_resteers")
	icm := s.Col("icache_l1_misses")
	cov := s.Col("pipeline_covered_misses")
	out := make([]EpochStats, s.Len())
	for e := range out {
		ins := s.DeltaInstructions(e)
		cycles := s.Delta(e, cyc)
		st := EpochStats{
			Epoch:         e + 1,
			Instructions:  ins,
			Cycles:        cycles,
			BTBMisses:     int64(s.Delta(e, miss)),
			Resteers:      int64(s.Delta(e, rst)),
			ICacheMisses:  int64(s.Delta(e, icm)),
			CoveredMisses: int64(s.Delta(e, cov)),
		}
		if cycles > 0 {
			st.IPC = float64(ins) / cycles
		}
		if ins > 0 {
			st.BTBMPKI = float64(st.BTBMisses) / float64(ins) * 1000
		}
		out[e] = st
	}
	return out
}

func toResult(r *pipeline.Result) Result {
	return Result{
		Instructions:      r.Original,
		Cycles:            r.Cycles,
		IPC:               r.IPC(),
		BTBMPKI:           r.MPKI(),
		BTBMisses:         r.BTB.DirectMisses(),
		BTBAccesses:       r.BTB.DirectAccesses(),
		FrontendBoundFrac: r.FrontendBoundFrac(),
		PrefetchIssued:    r.Prefetch.Issued,
		PrefetchUsed:      r.Prefetch.Used,
		PrefetchAccuracy:  r.Prefetch.Accuracy(),
		DynamicOverhead:   r.DynamicOverhead(),
		ICacheMPKI:        float64(r.ICacheMisses) / float64(max(r.Original, 1)) * 1000,
		Epochs:            epochsFromSeries(r.Series),
	}
}

// Speedup returns the percentage IPC improvement of opt over base.
func Speedup(base, opt Result) float64 { return metrics.Speedup(base.IPC, opt.IPC) }

// Coverage returns the percentage of base's BTB misses that opt
// eliminated (clamped at zero, the paper's convention).
func Coverage(base, opt Result) float64 { return metrics.Coverage(base.BTBMisses, opt.BTBMisses) }

// CoverageSigned is Coverage without the clamp: negative values mean
// opt suffered more BTB misses than base.
func CoverageSigned(base, opt Result) float64 {
	return metrics.CoverageSigned(base.BTBMisses, opt.BTBMisses)
}

// AnalysisSummary describes what the Twig offline analysis produced for
// an application.
type AnalysisSummary struct {
	// Sites is the number of (injection block, branch) placements.
	Sites int
	// CoalesceTableEntries is the size of the key-value prefetch table.
	CoalesceTableEntries int
	// InjectedInstructions and InjectedBytes are the static overhead.
	InjectedInstructions int
	InjectedBytes        uint64
	// TextBytes is the original text-segment size.
	TextBytes uint64
	// StaticOverhead is InjectedBytes/TextBytes.
	StaticOverhead float64
	// EstimatedCoverage is the analysis-time share of sampled miss
	// volume reachable from the chosen sites.
	EstimatedCoverage float64
}

// System is one application prepared end to end: built, profiled on a
// training input, analyzed, and relinked with prefetch instructions.
type System struct {
	art   *core.Artifacts
	opts  core.Options
	check bool

	reg      *telemetry.Registry
	live     *telemetry.LiveServer
	liveAddr string
	stopLive func()
}

// NewSystem builds and optimizes the application, training Twig on
// input 0.
func NewSystem(app App, cfg Config) (*System, error) {
	return NewSystemTrained(app, 0, cfg)
}

// NewSystemTrained builds and optimizes the application using the given
// training input (the paper's cross-input study trains on #0 and tests
// on #1-#3).
func NewSystemTrained(app App, trainInput int, cfg Config) (*System, error) {
	opts := cfg.options()
	art, err := core.BuildAndOptimize(app, trainInput, opts)
	if err != nil {
		return nil, err
	}
	sys := &System{art: art, opts: opts, check: cfg.Check || check.Enabled}
	if cfg.CollectMetrics || cfg.Epoch > 0 || cfg.LiveAddr != "" {
		sys.reg = telemetry.NewRegistry()
		sys.opts.Telemetry.Registry = sys.reg
	}
	if cfg.LiveAddr != "" {
		live := telemetry.NewLiveServer()
		addr, stop, err := live.Start(cfg.LiveAddr)
		if err != nil {
			return nil, fmt.Errorf("twig: starting live endpoint: %w", err)
		}
		sys.live, sys.liveAddr, sys.stopLive = live, addr, stop
		// Publish a fresh snapshot at every epoch boundary; the series
		// snapshot follows when the run completes.
		sys.opts.Pipeline.Sink = telemetry.EpochPublisher{Live: live, Registry: sys.reg}
	}
	return sys, nil
}

// WriteMetrics renders the System's metrics registry in the Prometheus
// text exposition format (namespace "twig"), reflecting the most recent
// run. Metrics collection must be enabled in the Config.
func (s *System) WriteMetrics(w io.Writer) error {
	if s.reg == nil {
		return fmt.Errorf("twig: metrics not collected (set Config.CollectMetrics, Epoch, or LiveAddr)")
	}
	return telemetry.WritePrometheus(w, s.reg, "twig")
}

// LiveAddr returns the bound address of the live stats endpoint, or ""
// when Config.LiveAddr was empty.
func (s *System) LiveAddr() string { return s.liveAddr }

// Close stops the live stats endpoint, if one is running.
func (s *System) Close() {
	if s.stopLive != nil {
		s.stopLive()
		s.stopLive = nil
	}
}

// App returns the application this system models.
func (s *System) App() App { return s.art.Params.Name }

// Run simulates one named scheme (see SchemeNames) on the given input.
// When run verification is on (Config.Check or the twigcheck build
// tag), the run is verified against the verification layer before its
// Result is converted. The options are copied per run so the attached
// checker sink never leaks into later runs.
func (s *System) Run(scheme string, input int) (Result, error) {
	if _, err := core.LookupScheme(scheme); err != nil {
		return Result{}, fmt.Errorf("twig: %w", err)
	}
	opts := s.opts
	var rec *check.Recorder
	if s.check {
		rec = check.Attach(&opts.Pipeline)
	}
	r, err := s.art.RunScheme(scheme, input, opts)
	if err != nil {
		return Result{}, err
	}
	if rec != nil {
		if err := rec.Verify(r); err != nil {
			return Result{}, fmt.Errorf("twig: %s run: %w", scheme, err)
		}
		if s.reg != nil {
			if err := rec.VerifyRegistry(s.reg, r); err != nil {
				return Result{}, fmt.Errorf("twig: %s run: %w", scheme, err)
			}
		}
		if err := check.VerifySeries(r); err != nil {
			return Result{}, fmt.Errorf("twig: %s run: %w", scheme, err)
		}
	}
	return s.finish(r, nil)
}

// RunSchemes simulates the named schemes (see SchemeNames) on one
// input and returns their results keyed by scheme name. Schemes that
// can share a stream are simulated in a single pass: the instruction
// stream is executed once and broadcast to every scheme's simulator
// (see internal/stepcast), so an N-scheme comparison costs roughly one
// execution plus N cheap consumers instead of N executions. Grouping
// never changes the numbers — each result is bit-identical to the
// corresponding Run.
//
// When run verification is on (Config.Check or the twigcheck build
// tag) the schemes run sequentially instead, each under its own
// checker, exactly as Run does; attached telemetry observers (trace
// writers, registries) likewise force sequential runs so per-run
// instrumentation never interleaves.
func (s *System) RunSchemes(input int, names ...string) (map[string]Result, error) {
	for _, name := range names {
		if _, err := core.LookupScheme(name); err != nil {
			return nil, fmt.Errorf("twig: %w", err)
		}
	}
	if s.check {
		out := make(map[string]Result, len(names))
		for _, name := range names {
			r, err := s.Run(name, input)
			if err != nil {
				return nil, err
			}
			out[name] = r
		}
		return out, nil
	}
	rs, err := s.art.RunSchemes(names, input, s.opts)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Result, len(rs))
	for name, r := range rs {
		res, err := s.finish(r, nil)
		if err != nil {
			return nil, err
		}
		out[name] = res
	}
	return out, nil
}

// Stat is a point estimate with a two-sided confidence interval.
type Stat struct {
	Value, Lo, Hi float64
}

// Contains reports whether v lies within the interval.
func (s Stat) Contains(v float64) bool { return v >= s.Lo && v <= s.Hi }

// SampledResult is the estimate a sampled run produces in place of a
// Result: point estimates with confidence intervals, plus how much
// detailed-simulation work the sampling saved.
type SampledResult struct {
	// Intervals is the number of whole intervals the window divides
	// into; Measured of them were simulated in detail.
	Intervals, Measured int
	// Confidence is the effective CI level of the intervals.
	Confidence float64
	// WorkReduction is total window instructions over detailed
	// instructions — the sampling speedup, deterministic and
	// machine-independent.
	WorkReduction float64
	// IPC, BTBMPKI and Coverage estimate the exact run's IPC,
	// direct-branch BTB MPKI, and prefetch coverage fraction.
	IPC, BTBMPKI, Coverage Stat
}

// Sampled estimates one named scheme's run (see SchemeNames) with
// interval sampling per Config.Sample. The estimate's confidence
// intervals are calibrated against exact runs by the test suite; see
// TESTING.md.
func (s *System) Sampled(scheme string, input int) (SampledResult, error) {
	if !s.opts.Sample.Enabled() {
		return SampledResult{}, fmt.Errorf("twig: sampling not configured (set Config.Sample)")
	}
	est, err := s.art.RunSchemeSampled(scheme, input, s.opts)
	if err != nil {
		return SampledResult{}, err
	}
	mirror := func(st sampling.Stat) Stat { return Stat{Value: st.Value, Lo: st.Lo, Hi: st.Hi} }
	return SampledResult{
		Intervals:     est.Intervals,
		Measured:      est.Measured,
		Confidence:    est.Confidence,
		WorkReduction: est.WorkReduction,
		IPC:           mirror(est.IPC),
		BTBMPKI:       mirror(est.MPKI),
		Coverage:      mirror(est.Coverage),
	}, nil
}

// Checkpoint simulates one named scheme up to `at` instructions
// (counted from the start of the run, warmup included) and returns the
// serialized simulator state — a versioned, CRC-protected envelope.
// Resume continues it to completion. Checkpoints capture simulator
// state only, never telemetry observers.
func (s *System) Checkpoint(scheme string, input int, at int64) ([]byte, error) {
	return s.art.CheckpointScheme(scheme, input, s.opts, at)
}

// Resume restores a Checkpoint taken under the same configuration,
// scheme and input, and runs the remainder of the window. The result
// is bit-identical to the corresponding uninterrupted run.
func (s *System) Resume(scheme string, input int, data []byte) (Result, error) {
	r, err := s.art.ResumeScheme(scheme, input, s.opts, data)
	if err != nil {
		return Result{}, err
	}
	return toResult(r), nil
}

// Analysis summarizes the offline analysis for this system.
func (s *System) Analysis() AnalysisSummary {
	an := s.art.Analysis
	est := 0.0
	if an.TotalMissCount > 0 {
		est = float64(an.CoveredMissCount) / float64(an.TotalMissCount)
	}
	return AnalysisSummary{
		Sites:                len(an.Placements),
		CoalesceTableEntries: len(s.art.Optimized.CoalesceTable),
		InjectedInstructions: s.art.Optimized.InjectedInstrs(),
		InjectedBytes:        s.art.Optimized.InjectedBytes(),
		TextBytes:            s.art.Program.TextBytes,
		StaticOverhead:       float64(s.art.Optimized.InjectedBytes()) / float64(s.art.Program.TextBytes),
		EstimatedCoverage:    est,
	}
}

// finish converts a pipeline result and, when the live endpoint is up,
// publishes the completed run's snapshot (including the epoch series).
func (s *System) finish(r *pipeline.Result, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	if s.live != nil {
		s.live.Update(s.reg, r.Series)
	}
	return toResult(r), nil
}

// MatrixKey names one cell of a RunMatrix sweep: an application, a
// scheme (see SchemeNames) and an input number.
type MatrixKey struct {
	App    App
	Scheme string
	Input  int
}

// SchemeNames lists the scheme names Run, RunSchemes and RunMatrix
// accept, in the scheme table's order.
func SchemeNames() []string {
	return append([]string(nil), core.SchemeNames...)
}

// RunMatrix simulates every requested application × scheme × input cell
// on a worker pool of cfg.Jobs workers, backed by a persistent result
// cache under cfg.CacheDir. Empty slices mean "all nine applications",
// "every scheme in SchemeNames" and "input 0". Each application is
// built, profiled and analyzed once as a job DAG shared by its cells,
// and each (app, input) point's schemes run as one grouped job over a
// shared broadcast stream (runner.GroupResult over core.RunSchemes) —
// cells already in the cache peel out of their group before anything
// executes, so on a warm cache every cell — and the training profile
// behind it — replays from disk without executing anything. The
// returned map holds one Result per cell and is identical for any
// worker count, and cell cache entries are interchangeable with those
// of ungrouped runs.
func RunMatrix(cfg Config, apps []App, schemes []string, inputs []int) (map[MatrixKey]Result, error) {
	if len(apps) == 0 {
		apps = Apps()
	}
	if len(schemes) == 0 {
		schemes = SchemeNames()
	}
	if len(inputs) == 0 {
		inputs = []int{0}
	}
	for _, s := range schemes {
		if _, err := core.LookupScheme(s); err != nil {
			return nil, fmt.Errorf("twig: %w", err)
		}
	}
	opts := cfg.options()
	dir := cfg.CacheDir
	if dir == "" {
		dir = runner.DefaultCacheDir()
	}
	cache, err := runner.OpenCache(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("twig: %w", err)
	}
	ctx := context.Background()
	if cfg.Coordinator != "" && runner.Cacheable(opts) {
		// Distribution is an accelerator, not a dependency: attach the
		// coordinator's blob store as the cache's remote tier, offer the
		// matrix to the fleet, and wait for it to drain. The local
		// execution below then replays fleet results as remote cache
		// hits and computes anything the fleet did not finish. If the
		// coordinator is unreachable (or the fleet is dead), detach and
		// run purely locally — same results, just slower.
		client := twigd.NewClient(cfg.Coordinator)
		cache.SetRemote(client.Blobs(), runner.DefaultRemoteBackoff(), -1)
		specs := twigd.MatrixSpecs(cfg.simConfig(), apps, schemes, inputs)
		if err := client.Drain(ctx, specs, nil); err != nil && client.Ping() != nil {
			cache.SetRemote(nil, runner.Backoff{}, 0)
		}
	}
	run := runner.New(runner.Options{Workers: cfg.Jobs, Cache: cache})

	// One group per (app, input) point: its cells share a stream. Member
	// IDs and hashes are exactly those of the equivalent individual jobs,
	// so caches warmed by either path serve the other.
	type group struct {
		app     App
		input   int
		art     *runner.Job
		members []runner.Member
		byID    map[string]string // member ID -> scheme name
	}
	var groups []group
	for _, app := range apps {
		art := runner.ArtifactsJob(app, 0, opts, "")
		for _, input := range inputs {
			g := group{app: app, input: input, art: art, byID: make(map[string]string, len(schemes))}
			for _, scheme := range schemes {
				memo, _ := runner.SchemeMemoKey(scheme, app, input) // schemes validated above
				h := ""
				if runner.Cacheable(opts) {
					h = runner.HashSim(memo, opts)
				}
				id := "run/" + memo
				g.members = append(g.members, runner.Member{
					ID:    id,
					Kind:  runner.KindSim,
					Hash:  h,
					Codec: runner.ResultCodec{},
				})
				g.byID[id] = scheme
			}
			groups = append(groups, g)
		}
	}

	vals := make([]map[string]any, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		wg.Add(1)
		go func(i int, g group) {
			defer wg.Done()
			vals[i], errs[i] = run.GroupResult(ctx, g.members, []*runner.Job{g.art},
				func(_ context.Context, deps []any, need []runner.Member) (map[string]any, error) {
					names := make([]string, len(need))
					for j, m := range need {
						names[j] = g.byID[m.ID]
					}
					rs, err := deps[0].(*core.Artifacts).RunSchemes(names, g.input, opts)
					if err != nil {
						return nil, err
					}
					out := make(map[string]any, len(need))
					for _, m := range need {
						out[m.ID] = rs[g.byID[m.ID]]
					}
					return out, nil
				})
		}(i, groups[i])
	}
	wg.Wait()
	out := make(map[MatrixKey]Result, len(groups)*len(schemes))
	for i, g := range groups {
		if errs[i] != nil {
			return nil, fmt.Errorf("twig: %s input %d: %w", g.app, g.input, errs[i])
		}
		for id, scheme := range g.byID {
			out[MatrixKey{g.app, scheme, g.input}] = toResult(vals[i][id].(*pipeline.Result))
		}
	}
	return out, nil
}

// RunExperiments regenerates the paper's tables and figures into w.
// only restricts the set to the given experiment IDs (nil = all);
// instructions sizes each simulation window. An unknown ID fails
// before anything is rendered. See ExperimentIDs.
func RunExperiments(w io.Writer, instructions int64, only []string, apps []App) error {
	ctx := experiments.NewContext(w, instructions)
	if len(apps) > 0 {
		ctx.Apps = apps
	}
	if err := ctx.RunSelected(only, 1); err != nil {
		return fmt.Errorf("twig: %w", err)
	}
	return nil
}

// ExperimentIDs lists the regenerable tables and figures.
func ExperimentIDs() []string { return experiments.IDs() }
