// Metamorphic resume oracle: a run split at arbitrary checkpoint
// boundaries — serialize, restore into a fresh simulator, continue —
// must be indistinguishable from the unsplit run, not just in its
// final Result but in the complete sink-observed event stream. The
// sink persists across segments, so any drift in replayed state
// (clock skew, lost queue occupancy, a PRNG cursor off by one) shows
// up as a byte difference in the streams.
package check_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"twig/internal/btb"
	"twig/internal/core"
	"twig/internal/exec"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
	"twig/internal/program"
	"twig/internal/rng"
	"twig/internal/workload"
)

// recordingSink appends every committed-stream event, with all its
// fields and cycle stamps, to buf. Resteers also print the branch's
// layout index, looked up from the program by PC.
type recordingSink struct {
	buf *bytes.Buffer
	p   *program.Program
}

func (r recordingSink) BlockEnter(id int32) { fmt.Fprintf(r.buf, "block %d\n", id) }

func (r recordingSink) Taken(from, to int32, cycle float64) {
	fmt.Fprintf(r.buf, "taken %d %d %.3f\n", from, to, cycle)
}

func (r recordingSink) BTBMiss(i int64, cycle float64, idx int32, pc uint64, kind string) {
	fmt.Fprintf(r.buf, "miss %d %d %.3f %x %s\n", i, idx, cycle, pc, kind)
}

func (r recordingSink) Resteer(i int64, cycle float64, cause string, pc uint64) {
	fmt.Fprintf(r.buf, "resteer %d %s %d %.3f %x\n", i, cause, r.p.FindInstr(pc), cycle, pc)
}

func (r recordingSink) PrefetchIssue(i int64, cycle float64, pc uint64, ready float64) {
	fmt.Fprintf(r.buf, "prefetch issued %d %x %.3f %.3f\n", i, pc, cycle, ready)
}

func (r recordingSink) PrefetchDrop(i int64, cycle float64, pc uint64) {
	fmt.Fprintf(r.buf, "prefetch dropped %d %x %.3f\n", i, pc, cycle)
}

func (r recordingSink) PrefetchUse(i int64, cycle float64, pc uint64, late float64) {
	fmt.Fprintf(r.buf, "prefetch used %d %x %.3f %.3f\n", i, pc, cycle, late)
}

func (r recordingSink) ICacheMiss(i int64, cycle float64, line uint64, lead, exposed float64) {
	fmt.Fprintf(r.buf, "icache %d %x %.3f %.3f %.3f\n", i, line, lead, cycle, exposed)
}

func (r recordingSink) EpochMark(n, i int64, cycle float64) {
	fmt.Fprintf(r.buf, "epoch %d %d %.3f\n", n, i, cycle)
}

// resumeCase describes one scheme's pipeline-level run setup, mirroring
// core's schemeConfig (which is what the experiment harness executes).
type resumeCase struct {
	name string
	prog func(*core.Artifacts) *program.Program
	cfg  func(pipeline.Config) pipeline.Config
	mk   func(core.Options) prefetcher.Scheme
}

func resumeCases() []resumeCase {
	return []resumeCase{
		{
			name: "baseline",
			prog: func(a *core.Artifacts) *program.Program { return a.Program },
			cfg:  func(c pipeline.Config) pipeline.Config { return c },
			mk: func(o core.Options) prefetcher.Scheme {
				return prefetcher.NewBaseline(o.BTB, 0, false)
			},
		},
		{
			name: "twig",
			prog: func(a *core.Artifacts) *program.Program { return a.Optimized },
			cfg:  func(c pipeline.Config) pipeline.Config { return c },
			mk: func(o core.Options) prefetcher.Scheme {
				return prefetcher.NewBaseline(o.BTB, o.PrefetchBuffer, false)
			},
		},
		{
			name: "shotgun",
			prog: func(a *core.Artifacts) *program.Program { return a.Program },
			cfg: func(c pipeline.Config) pipeline.Config {
				c.RASEntries = 1536
				return c
			},
			mk: func(core.Options) prefetcher.Scheme {
				return prefetcher.NewShotgun(prefetcher.DefaultShotgunConfig())
			},
		},
		{
			name: "hierarchy",
			prog: func(a *core.Artifacts) *program.Program { return a.Program },
			cfg:  func(c pipeline.Config) pipeline.Config { return c },
			mk: func(o core.Options) prefetcher.Scheme {
				hcfg := btb.DefaultHierarchyConfig()
				hcfg.L1 = o.BTB
				return prefetcher.NewHierarchy(hcfg)
			},
		},
		{
			name: "shadow",
			prog: func(a *core.Artifacts) *program.Program { return a.Program },
			cfg:  func(c pipeline.Config) pipeline.Config { return c },
			mk: func(o core.Options) prefetcher.Scheme {
				scfg := prefetcher.DefaultShadowConfig()
				scfg.BTB = o.BTB
				return prefetcher.NewShadow(scfg)
			},
		},
	}
}

// TestMetamorphicResumeOracle splits each scheme's run at k seeded
// random instruction boundaries and requires both the final Result and
// the concatenated event stream to be byte-identical to the unsplit
// run. Splits land anywhere — inside warmup included — because the
// checkpoint must be position-independent.
func TestMetamorphicResumeOracle(t *testing.T) {
	app := workload.Cassandra
	a := artifactsFor(t, app)
	opts := core.DefaultOptions()
	in := a.Params.InputPhase(0, core.EvalPhase)
	const warm = matrixWindow / 4
	total := int64(matrixWindow + warm)

	for _, tc := range resumeCases() {
		t.Run(tc.name, func(t *testing.T) {
			base := opts.Pipeline
			base.MaxInstructions = matrixWindow
			base.Warmup = warm
			base.BackendCPI = a.Params.BackendCPI
			base.CondMispredictRate = a.Params.CondMispredictRate
			base = tc.cfg(base)

			var contBuf bytes.Buffer
			cfg := base
			cfg.Sink = recordingSink{&contBuf, tc.prog(a)}
			cfg.Scheme = tc.mk(opts)
			want, err := pipeline.Run(tc.prog(a), in, cfg)
			if err != nil {
				t.Fatal(err)
			}

			// k random split points, sorted; duplicates collapse (a
			// zero-length segment is a legal, if pointless, resume).
			r := rng.New(0x5EED ^ uint64(len(tc.name)))
			splits := make([]int64, 3)
			for i := range splits {
				splits[i] = 1 + int64(r.Intn(int(total-1)))
			}
			sort.Slice(splits, func(i, j int) bool { return splits[i] < splits[j] })

			var splitBuf bytes.Buffer
			sink := recordingSink{&splitBuf, tc.prog(a)}
			scfg := base
			scfg.Sink = sink
			scfg.Scheme = tc.mk(opts)
			src, err := exec.New(tc.prog(a), in)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := pipeline.NewSim(tc.prog(a), src, scfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, split := range splits {
				if err := sim.RunTo(split); err != nil {
					t.Fatal(err)
				}
				data, err := sim.Checkpoint()
				if err != nil {
					t.Fatalf("checkpoint at %d: %v", split, err)
				}
				// Fresh everything: scheme, source, simulator. Only the
				// sink (and its buffer) carries over, exactly as a
				// restored run in a new process would reattach its own.
				ncfg := base
				ncfg.Sink = sink
				ncfg.Scheme = tc.mk(opts)
				nsrc, err := exec.New(tc.prog(a), in)
				if err != nil {
					t.Fatal(err)
				}
				sim, err = pipeline.ResumeSim(tc.prog(a), nsrc, ncfg, data)
				if err != nil {
					t.Fatalf("resume at %d: %v", split, err)
				}
				if got := sim.Instructions(); got != split {
					t.Fatalf("resumed at %d, want %d", got, split)
				}
			}
			if err := sim.RunTo(total); err != nil {
				t.Fatal(err)
			}
			got, err := sim.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("split run result differs (splits %v):\n got %+v\nwant %+v", splits, got, want)
			}
			if !bytes.Equal(contBuf.Bytes(), splitBuf.Bytes()) {
				t.Errorf("event streams differ (splits %v): continuous %d bytes, split %d bytes; first divergence at byte %d",
					splits, contBuf.Len(), splitBuf.Len(), firstDiff(contBuf.Bytes(), splitBuf.Bytes()))
			}
		})
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestResumeOracleCoreLevel pins the same identity one layer up: a
// checkpoint taken through core.CheckpointScheme and continued through
// core.ResumeScheme must reproduce core.RunScheme bit-for-bit.
func TestResumeOracleCoreLevel(t *testing.T) {
	a := artifactsFor(t, workload.Drupal)
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = matrixWindow

	for _, scheme := range []string{"baseline", "twig", "confluence", "hierarchy", "shadow"} {
		t.Run(scheme, func(t *testing.T) {
			want, err := a.RunScheme(scheme, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			data, err := a.CheckpointScheme(scheme, 0, opts, matrixWindow/3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.ResumeScheme(scheme, 0, opts, data)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed result differs:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
