package pipeline

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"twig/internal/btb"
	"twig/internal/exec"
	"twig/internal/isa"
	"twig/internal/prefetcher"
	"twig/internal/program"
	"twig/internal/telemetry"
)

// twigProgram returns simpleProgram with a brprefetch for the handler's
// conditional injected at the dispatcher block, so runs exercise the
// full prefetch lifecycle (issue, drop, use).
func twigProgram(t *testing.T) *program.Program {
	t.Helper()
	p := simpleProgram(t)
	var condID int32 = -1
	for i := range p.Instrs {
		if p.Instrs[i].Kind == isa.KindCondBranch && p.Instrs[i].Flags&program.FlagLoopBack == 0 {
			condID = p.Instrs[i].ID
			break
		}
	}
	if condID < 0 {
		t.Fatal("no conditional found")
	}
	mainBlock := p.Blocks[p.BlockOf[p.Funcs[0].Entry]].ID
	q, err := p.Inject(&program.InjectionPlan{
		Injections: []program.Injection{{Block: mainBlock, Prefetches: []int32{condID}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// twigConfig is testConfig with a tiny BTB (so misses and resteers are
// plentiful) and the prefetch buffer enabled.
func twigConfig(n int64) Config {
	cfg := testConfig(n)
	cfg.Scheme = prefetcher.NewBaseline(btb.Config{Entries: 4, Ways: 2}, 32, false)
	return cfg
}

// countingSink counts a run's events by kind.
type countingSink struct {
	telemetry.NopSink
	t                                 *testing.T
	resteers                          map[string]int64
	used, late, issued, dropped       int64
	icMisses, epochs, takens, btbMiss int64
	blocks                            int64
}

func (c *countingSink) BlockEnter(int32)                                    { c.blocks++ }
func (c *countingSink) Taken(int32, int32, float64)                         { c.takens++ }
func (c *countingSink) BTBMiss(int64, float64, int32, uint64, string)       { c.btbMiss++ }
func (c *countingSink) Resteer(_ int64, _ float64, cause string, _ uint64)  { c.resteers[cause]++ }
func (c *countingSink) PrefetchIssue(int64, float64, uint64, float64)       { c.issued++ }
func (c *countingSink) PrefetchDrop(int64, float64, uint64)                 { c.dropped++ }
func (c *countingSink) ICacheMiss(int64, float64, uint64, float64, float64) { c.icMisses++ }

func (c *countingSink) PrefetchUse(_ int64, _ float64, _ uint64, late float64) {
	c.used++
	if late > 0 {
		c.late++
	}
}

func (c *countingSink) EpochMark(n, _ int64, _ float64) {
	c.epochs++
	if n != c.epochs {
		c.t.Errorf("epoch mark with n=%d, want %d", n, c.epochs)
	}
}

// TestTelemetryHookCrossCheck runs with a sink counting every event
// and cross-checks the totals against the Result's own counters — the
// event stream and the statistics must describe the same run.
func TestTelemetryHookCrossCheck(t *testing.T) {
	for _, warmup := range []int64{0, 10_000} {
		t.Run(fmt.Sprintf("warmup=%d", warmup), func(t *testing.T) {
			p := twigProgram(t)
			cfg := twigConfig(50_000)
			cfg.Warmup = warmup
			cfg.Telemetry.EpochLength = 10_000
			c := &countingSink{t: t, resteers: map[string]int64{}}
			cfg.Sink = c

			res, err := Run(p, exec.Input{Seed: 11}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The run must exercise the event classes for the checks to
			// mean anything. The tiny synthetic program fully warms the
			// L1i (and exhausts prefetch coverage) inside a warmup
			// window, so the cache and coverage activity requirements
			// apply only to the unwarmed run; the equality checks below
			// hold regardless.
			if res.BTBResteers == 0 {
				t.Fatalf("inactive run: no BTB resteers")
			}
			if warmup == 0 && (res.ICacheMisses == 0 || res.CoveredMisses == 0) {
				t.Fatalf("inactive run: icache misses %d, covered %d",
					res.ICacheMisses, res.CoveredMisses)
			}

			if got := c.resteers[telemetry.CauseBTBMiss]; got != res.BTBResteers {
				t.Errorf("Resteer(btb_miss) fired %d times, Result has %d", got, res.BTBResteers)
			}
			if c.btbMiss != res.BTBResteers {
				t.Errorf("BTBMiss fired %d times, Result has %d resteers", c.btbMiss, res.BTBResteers)
			}
			if got := c.resteers[telemetry.CauseCond]; got != res.CondMispredicts {
				t.Errorf("Resteer(cond) fired %d times, Result has %d", got, res.CondMispredicts)
			}
			if got := c.resteers[telemetry.CauseRAS]; got != res.RASMispredicts {
				t.Errorf("Resteer(ras) fired %d times, Result has %d", got, res.RASMispredicts)
			}
			if got := c.resteers[telemetry.CauseIBTB]; got != res.IBTBMispredicts {
				t.Errorf("Resteer(ibtb) fired %d times, Result has %d", got, res.IBTBMispredicts)
			}
			if len(c.resteers) > 4 {
				t.Errorf("resteer causes %v, want only the four trace-schema causes", c.resteers)
			}
			if c.icMisses != res.ICacheMisses {
				t.Errorf("ICacheMiss fired %d times, Result has %d", c.icMisses, res.ICacheMisses)
			}
			if c.used != res.CoveredMisses {
				t.Errorf("PrefetchUse fired %d times, Result has %d covered", c.used, res.CoveredMisses)
			}
			if c.late != res.LateCoveredMisses {
				t.Errorf("PrefetchUse(late > 0) fired %d times, Result has %d late-covered", c.late, res.LateCoveredMisses)
			}
			if got := c.issued + c.dropped; got != res.Prefetch.Issued {
				t.Errorf("PrefetchIssue+PrefetchDrop fired %d times, Result has %d issued", got, res.Prefetch.Issued)
			}

			if res.Series == nil {
				t.Fatal("no series sampled")
			}
			if int64(res.Series.Len()) != c.epochs {
				t.Errorf("series has %d epochs, EpochMark fired %d times", res.Series.Len(), c.epochs)
			}
			// 50k measured instructions at 10k per epoch: exactly 5.
			if res.Series.Len() != 5 {
				t.Errorf("series has %d epochs, want 5", res.Series.Len())
			}
			last := res.Series.Len() - 1
			if got := int64(res.Series.Value(last, res.Series.Col("pipeline_btb_resteers"))); got != res.BTBResteers {
				t.Errorf("series total resteers %d, Result has %d", got, res.BTBResteers)
			}
			if got := int64(res.Series.Value(last, res.Series.Col("pipeline_covered_misses"))); got != res.CoveredMisses {
				t.Errorf("series total covered %d, Result has %d", got, res.CoveredMisses)
			}
		})
	}
}

// TestEventTraceDeterminism runs the same configuration twice with the
// tracer attached and requires byte-identical event streams — the
// repo's determinism promise extended to the event level.
func TestEventTraceDeterminism(t *testing.T) {
	run := func() *bytes.Buffer {
		var buf bytes.Buffer
		p := twigProgram(t)
		cfg := twigConfig(30_000)
		cfg.Telemetry.EpochLength = 10_000
		cfg.Telemetry.Tracer = telemetry.NewTracer(&buf)
		if _, err := Run(p, exec.Input{Seed: 12}, cfg); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := run(), run()
	if a.Len() == 0 {
		t.Fatal("empty event trace")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("identical runs produced different event traces (%d vs %d bytes)", a.Len(), b.Len())
	}
	for _, ev := range []string{`"ev":"btb_miss"`, `"ev":"resteer"`, `"ev":"pf_issue"`, `"ev":"pf_use"`, `"ev":"icache_miss"`, `"ev":"epoch"`} {
		if !strings.Contains(a.String(), ev) {
			t.Errorf("trace has no %s record", ev)
		}
	}
}

// TestTraceSkipsWarmup: records traced during warmup would leak
// unmeasured work into the stream; the first record must carry a
// non-negative measured instruction index.
func TestTraceSkipsWarmup(t *testing.T) {
	var buf bytes.Buffer
	p := twigProgram(t)
	cfg := twigConfig(20_000)
	cfg.Warmup = 10_000
	cfg.Telemetry.Tracer = telemetry.NewTracer(&buf)
	if _, err := Run(p, exec.Input{Seed: 13}, cfg); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty event trace")
	}
	if strings.Contains(buf.String(), `"i":-`) {
		t.Fatal("trace contains records from the warmup window")
	}
}
