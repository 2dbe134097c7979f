// Package sampling implements SMARTS-style interval sampling over the
// incremental simulation API: the run is divided into fixed-length
// intervals, a subset is simulated in detail (each preceded by a short
// detailed warmup), and everything between is functionally
// fast-forwarded — predictors, BTBs and caches stay warm while the
// clocks freeze. Per-interval measurements yield point estimates of
// IPC, BTB MPKI and prefetch coverage with Student-t confidence
// intervals; the calibration suite (internal/core) checks the stated
// intervals against committed exact-run numbers.
package sampling

import (
	"fmt"
	"math"
	"sort"

	"twig/internal/exec"
	"twig/internal/pipeline"
	"twig/internal/program"
	"twig/internal/rng"
)

// Spec configures interval sampling. The zero value disables sampling
// (Enabled returns false). Spec is comparable and fully canonical: two
// equal Specs always select the same intervals for the same run.
type Spec struct {
	// Interval is the measured interval length in original
	// instructions.
	Interval int64
	// Period measures one interval of every Period: the sampled
	// fraction is 1/Period. Period 1 measures everything (no savings).
	Period int
	// Seed, when non-zero, selects measured intervals uniformly at
	// random (seeded, deterministic). Zero selects systematically —
	// every Period-th interval, offset by Period/2.
	Seed uint64
	// Warmup is the detailed (timing) warmup simulated before each
	// measured interval, in instructions. The machine history is
	// already warm from fast-forwarding; this additionally warms the
	// timing state (FTQ/ROB occupancy, clock skew).
	Warmup int64
	// Confidence is the two-sided confidence level for the reported
	// intervals: 0.90, 0.95 or 0.99. Zero means 0.95.
	Confidence float64
}

// Enabled reports whether the spec requests sampling.
func (s Spec) Enabled() bool { return s.Interval > 0 && s.Period > 0 }

// validate rejects specs that cannot produce a statistically
// meaningful estimate.
func (s Spec) validate() error {
	if s.Interval <= 0 || s.Period <= 0 {
		return fmt.Errorf("sampling: interval and period must be positive")
	}
	if s.Warmup < 0 {
		return fmt.Errorf("sampling: negative warmup")
	}
	switch s.Confidence {
	case 0, 0.90, 0.95, 0.99:
	default:
		return fmt.Errorf("sampling: unsupported confidence level %g (want 0.90, 0.95 or 0.99)", s.Confidence)
	}
	return nil
}

// Level returns the effective confidence level (0.95 when the
// Confidence field is left zero).
func (s Spec) Level() float64 {
	if s.Confidence == 0 {
		return 0.95
	}
	return s.Confidence
}

// Stat is a point estimate with a two-sided confidence interval.
type Stat struct {
	Value, Lo, Hi float64
}

// Contains reports whether v lies within the interval.
func (s Stat) Contains(v float64) bool { return v >= s.Lo && v <= s.Hi }

// Estimate is the result of a sampled run.
type Estimate struct {
	// Spec echoes the sampling configuration that produced this
	// estimate.
	Spec Spec
	// Confidence is the effective confidence level of the intervals.
	Confidence float64
	// Intervals is the number of whole intervals the run divides into;
	// Measured of them were simulated in detail.
	Intervals, Measured int
	// TotalInstructions is the detailed-simulation work of the exact
	// run this estimate stands in for (warmup + measured window);
	// DetailedInstructions is the detailed work actually performed
	// (per-interval warmup + measured intervals). Their ratio is
	// WorkReduction — the sampling speedup, deterministic and
	// machine-independent.
	TotalInstructions, DetailedInstructions int64
	// WorkReduction is TotalInstructions / DetailedInstructions.
	WorkReduction float64
	// IPC, MPKI and Coverage estimate the exact run's IPC, direct-miss
	// MPKI, and prefetch coverage fraction (covered / (covered +
	// missed) direct-branch lookups).
	IPC, MPKI, Coverage Stat
}

// Run simulates (p, in) under cfg with interval sampling per spec and
// returns the statistical estimate. cfg is interpreted as for
// pipeline.Run: cfg.Warmup instructions of warmup (fast-forwarded
// here) followed by cfg.MaxInstructions of measured window (sampled
// here). The sink and telemetry are ignored — sampled runs estimate
// aggregates, they do not observe event streams.
func Run(p *program.Program, in exec.Input, cfg pipeline.Config, spec Spec) (*Estimate, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	n := cfg.MaxInstructions
	k := int(n / spec.Interval)
	if k < 2 {
		return nil, fmt.Errorf("sampling: %d instructions yield %d intervals of %d; need at least 2",
			n, k, spec.Interval)
	}
	picks := selectIntervals(k, spec)
	if len(picks) < 2 {
		return nil, fmt.Errorf("sampling: period %d selects %d of %d intervals; need at least 2",
			spec.Period, len(picks), k)
	}

	scfg := cfg
	scfg.Sink = nil
	scfg.Telemetry = pipeline.Telemetry{}
	scfg.Warmup = 0 // interval deltas replace warm-subtraction

	src, err := exec.New(p, in)
	if err != nil {
		return nil, err
	}
	sim, err := pipeline.NewSim(p, src, scfg)
	if err != nil {
		return nil, err
	}

	type delta struct {
		cycles          float64
		direct, covered int64
	}
	deltas := make([]delta, 0, len(picks))
	var detailed int64
	for _, i := range picks {
		start := cfg.Warmup + int64(i)*spec.Interval
		wstart := start - spec.Warmup
		if wstart < 0 {
			wstart = 0
		}
		if err := sim.FastForward(wstart); err != nil {
			return nil, err
		}
		detailed -= sim.Instructions() // may exceed wstart when intervals abut
		if err := sim.RunTo(start); err != nil {
			return nil, err
		}
		c0 := sim.Counters()
		if err := sim.RunTo(start + spec.Interval); err != nil {
			return nil, err
		}
		c1 := sim.Counters()
		detailed += c1.Instructions
		deltas = append(deltas, delta{
			cycles:  c1.Cycles - c0.Cycles,
			direct:  c1.DirectMisses - c0.DirectMisses,
			covered: c1.CoveredMisses - c0.CoveredMisses,
		})
	}

	conf := spec.Level()
	m := len(deltas)
	iv := float64(spec.Interval)

	cycles := make([]float64, m)
	mpki := make([]float64, m)
	cover := make([]float64, m)
	for i, d := range deltas {
		cycles[i] = d.cycles
		mpki[i] = float64(d.direct) / iv * 1000
		if tot := d.covered + d.direct; tot > 0 {
			cover[i] = float64(d.covered) / float64(tot)
		}
	}

	est := &Estimate{
		Spec:                 spec,
		Confidence:           conf,
		Intervals:            k,
		Measured:             m,
		TotalInstructions:    cfg.Warmup + n,
		DetailedInstructions: detailed,
		MPKI:                 meanCI(mpki, conf),
		Coverage:             meanCI(cover, conf),
	}
	if detailed > 0 {
		est.WorkReduction = float64(est.TotalInstructions) / float64(detailed)
	}
	// IPC is a ratio of totals, so the interval is computed on the
	// linear quantity (cycles per interval) and inverted endpoint-wise;
	// a lower cycle bound at or below zero makes the upper IPC bound
	// unbounded, clamped to MaxFloat64 so estimates stay JSON-safe.
	cst := meanCI(cycles, conf)
	if cst.Value > 0 {
		est.IPC.Value = iv / cst.Value
	}
	if cst.Hi > 0 {
		est.IPC.Lo = iv / cst.Hi
	}
	if cst.Lo > 0 {
		est.IPC.Hi = iv / cst.Lo
	} else {
		est.IPC.Hi = math.MaxFloat64
	}
	return est, nil
}

// selectIntervals returns the measured interval indices in ascending
// order. Systematic selection (Seed 0) takes every Period-th interval
// starting at Period/2; seeded-random selection draws the same number
// of distinct indices uniformly via a partial Fisher-Yates shuffle.
func selectIntervals(k int, spec Spec) []int {
	m := k / spec.Period
	if m == 0 {
		m = 1
	}
	if spec.Seed == 0 {
		picks := make([]int, 0, m+1)
		for i := spec.Period / 2; i < k; i += spec.Period {
			picks = append(picks, i)
		}
		return picks
	}
	r := rng.New(spec.Seed)
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < m; i++ {
		j := i + r.Intn(k-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	picks := idx[:m]
	sort.Ints(picks)
	return picks
}

// meanCI returns the sample mean of xs with a two-sided Student-t
// confidence interval at level conf.
func meanCI(xs []float64, conf float64) Stat {
	m := len(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(m)
	if m < 2 {
		return Stat{Value: mean, Lo: mean, Hi: mean}
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(m-1))
	half := tCritical(conf, m-1) * sd / math.Sqrt(float64(m))
	return Stat{Value: mean, Lo: mean - half, Hi: mean + half}
}

// tTable holds two-sided Student-t critical values by confidence
// level, indexed by degrees of freedom 1..30; the tail entries cover
// df 40, 60, 120 and ∞.
var tTable = map[float64]struct {
	byDF [30]float64
	tail [4]float64 // df 40, 60, 120, ∞
}{
	0.90: {
		byDF: [30]float64{
			6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
			1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
			1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
		},
		tail: [4]float64{1.684, 1.671, 1.658, 1.645},
	},
	0.95: {
		byDF: [30]float64{
			12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
			2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
			2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
		},
		tail: [4]float64{2.021, 2.000, 1.980, 1.960},
	},
	0.99: {
		byDF: [30]float64{
			63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
			3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
			2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
		},
		tail: [4]float64{2.704, 2.660, 2.617, 2.576},
	},
}

// tCritical returns the two-sided Student-t critical value at
// confidence level conf with df degrees of freedom, rounding df down
// to the nearest tabulated value (which rounds the critical value up —
// intervals err on the wide side).
func tCritical(conf float64, df int) float64 {
	tab, ok := tTable[conf]
	if !ok {
		tab = tTable[0.95]
	}
	switch {
	case df < 1:
		return tab.byDF[0]
	case df <= 30:
		return tab.byDF[df-1]
	case df < 60:
		return tab.tail[0]
	case df < 120:
		return tab.tail[1]
	case df < 100000:
		return tab.tail[2]
	default:
		return tab.tail[3]
	}
}
