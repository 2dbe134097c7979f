package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"twig/internal/btb"
	"twig/internal/prefetcher"
	"twig/internal/program"
	"twig/internal/telemetry"
	"twig/internal/workload"
)

// goldenTraceProgram is the wordpress binary with a brprefetch at every
// third block for the direct branch ending the block two further on in
// layout: enough software prefetches that runs stage, drop and use
// entries, on a footprint large enough to miss in the L1i after warmup.
func goldenTraceProgram(t *testing.T) (*program.Program, workload.Params) {
	t.Helper()
	params, err := workload.ParamsFor(workload.WordPress)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Build(params)
	if err != nil {
		t.Fatal(err)
	}
	var plan program.InjectionPlan
	for bi := 0; bi+2 < len(p.Blocks); bi += 3 {
		br := p.Instrs[p.Blocks[bi+2].Last]
		if br.Kind.IsDirect() {
			plan.Injections = append(plan.Injections,
				program.Injection{Block: p.Blocks[bi].ID, Prefetches: []int32{br.ID}})
		}
	}
	q, err := p.Inject(&plan)
	if err != nil {
		t.Fatal(err)
	}
	return q, params
}

// TestEventTraceGolden pins the event-trace bytes across versions:
// TestEventTraceDeterminism only compares two runs of one build, so a
// change to how events reach the tracer could move every trace without
// failing it. Each run's SHA-256 and length were recorded from the
// tree before the observer channels were merged into one sink; the
// warmup run covers arming the trace at the measurement boundary.
// Together the runs emit every record type. A deliberate change to the
// trace schema, the workload generator or the timing model moves these
// constants; regenerate them and say why in the change.
func TestEventTraceGolden(t *testing.T) {
	p, params := goldenTraceProgram(t)
	for _, tc := range []struct {
		name   string
		warmup int64
		sha    string
		size   int
	}{
		{"warmup=0", 0, "c55f0951eb3ae2ffae84cbe955cc997ee4f3e1095c67472e70093d7c585a1e56", 326245},
		{"warmup=20000", 20_000, "25051f3c7b74b63902aa942b3193dc0773164e9b617345a4c2f89a75a2b04411", 334535},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := testConfig(50_000)
			cfg.BackendCPI = params.BackendCPI
			cfg.CondMispredictRate = params.CondMispredictRate
			cfg.Warmup = tc.warmup
			cfg.Scheme = prefetcher.NewBaseline(btb.Config{Entries: 1024, Ways: 4}, 32, false)
			cfg.Telemetry.EpochLength = 10_000
			cfg.Telemetry.Tracer = telemetry.NewTracer(&buf)
			if _, err := Run(p, params.InputPhase(0, 1), cfg); err != nil {
				t.Fatal(err)
			}
			for _, ev := range []string{"btb_miss", "resteer", "pf_issue", "pf_drop", "pf_use", "icache_miss", "epoch"} {
				if !strings.Contains(buf.String(), `{"ev":"`+ev+`"`) {
					t.Errorf("trace has no %s record", ev)
				}
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sha || buf.Len() != tc.size {
				t.Errorf("trace is %d bytes with SHA-256 %s, want %d bytes with %s", buf.Len(), got, tc.size, tc.sha)
			}
		})
	}
}
