package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"twig/internal/profile"
	"twig/internal/sampling"
	"twig/internal/twigopt"
	"twig/internal/workload"
)

// smallOpts shrinks windows so the full pipeline runs in test time.
func smallOpts() Options {
	opts := DefaultOptions()
	opts.Pipeline.MaxInstructions = 120_000
	return opts
}

func TestBuildAndOptimizeEndToEnd(t *testing.T) {
	opts := smallOpts()
	art, err := BuildAndOptimize(workload.Cassandra, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if art.Program == nil || art.Optimized == nil || art.Profile == nil || art.Analysis == nil {
		t.Fatal("artifacts incomplete")
	}
	if len(art.Profile.Samples) == 0 {
		t.Fatal("profiling produced no samples")
	}
	if art.Optimized.InjectedInstrs() == 0 {
		t.Fatal("optimization injected nothing")
	}
	if err := art.Optimized.Validate(); err != nil {
		t.Fatalf("optimized binary invalid: %v", err)
	}
}

func TestTwigOutperformsBaseline(t *testing.T) {
	opts := smallOpts()
	art, err := BuildAndOptimize(workload.Verilator, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := art.RunScheme("baseline", 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := art.RunScheme("twig", 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := art.RunScheme("ideal", 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tw.IPC() <= base.IPC() {
		t.Fatalf("Twig IPC %.3f <= baseline %.3f", tw.IPC(), base.IPC())
	}
	if ideal.IPC() < tw.IPC() {
		t.Fatalf("Twig IPC %.3f beat the ideal BTB %.3f", tw.IPC(), ideal.IPC())
	}
	if tw.BTB.DirectMisses() >= base.BTB.DirectMisses() {
		t.Fatal("Twig did not reduce BTB misses")
	}
}

func TestTwigBeatsShotgunOnCoverage(t *testing.T) {
	opts := smallOpts()
	art, err := BuildAndOptimize(workload.Cassandra, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := art.RunScheme("baseline", 0, opts)
	tw, _ := art.RunScheme("twig", 0, opts)
	sh, _ := art.RunScheme("shotgun", 0, opts)
	twCov := base.BTB.DirectMisses() - tw.BTB.DirectMisses()
	shCov := base.BTB.DirectMisses() - sh.BTB.DirectMisses()
	if twCov <= shCov {
		t.Fatalf("Twig covered %d misses, Shotgun %d — paper's central result inverted", twCov, shCov)
	}
}

func TestReoptimizeReusesProfile(t *testing.T) {
	opts := smallOpts()
	art, err := BuildAndOptimize(workload.Kafka, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	swOnly := opts
	swOnly.Opt.DisableCoalescing = true
	re, err := art.Reoptimize(swOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Optimized.CoalesceTable) != 0 {
		t.Fatal("coalescing-disabled reoptimize kept a table")
	}
	if re.Analysis == art.Analysis {
		t.Fatal("reoptimize returned the original analysis")
	}
	if re.Profile != art.Profile || re.Program != art.Program {
		t.Fatal("reoptimize did not reuse the profile and the binary")
	}
	if _, err := re.RunScheme("twig", 0, swOnly); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicArtifacts(t *testing.T) {
	opts := smallOpts()
	a1, err := BuildAndOptimize(workload.WordPress, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := BuildAndOptimize(workload.WordPress, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Profile.Samples) != len(a2.Profile.Samples) {
		t.Fatal("profiling nondeterministic")
	}
	if len(a1.Analysis.Placements) != len(a2.Analysis.Placements) {
		t.Fatal("analysis nondeterministic")
	}
	if a1.Optimized.TextBytes != a2.Optimized.TextBytes {
		t.Fatal("relink nondeterministic")
	}
}

// TestTrainingProjectionPinsProfile is the metamorphic pin of
// Options.Training, the projection a run's identity hashes its training
// by: changing a field outside it leaves CollectProfile's saved bytes
// unchanged, and so does changing Opt, which only the analysis reads;
// changing a field the profiler reads changes them.
func TestTrainingProjectionPinsProfile(t *testing.T) {
	params, err := workload.ParamsFor(workload.Verilator)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Build(params)
	if err != nil {
		t.Fatal(err)
	}
	saved := func(opts Options) []byte {
		t.Helper()
		prof, err := CollectProfile(p, params, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := prof.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := DefaultOptions()
	base.ProfileInstructions = 40_000
	want := saved(base)
	for _, c := range []struct {
		field                     string
		mutate                    func(*Options)
		sameTraining, sameProfile bool
	}{
		{"PrefetchBuffer", func(o *Options) { o.PrefetchBuffer = 16 }, true, true},
		{"Sample", func(o *Options) { o.Sample = sampling.Spec{Interval: 5_000, Period: 4} }, true, true},
		{"Opt", func(o *Options) { o.Opt.PrefetchDistance = 5; o.Opt.DisableCoalescing = true }, false, true},
		{"BTB entries", func(o *Options) { o.BTB.Entries = 2048 }, false, false},
		{"SampleRate", func(o *Options) { o.SampleRate = 4 }, false, false},
	} {
		o := base
		c.mutate(&o)
		if got := o.Training() == base.Training(); got != c.sameTraining {
			t.Errorf("%s: Training projections equal = %v, want %v", c.field, got, c.sameTraining)
		}
		if got := bytes.Equal(saved(o), want); got != c.sameProfile {
			t.Errorf("%s: saved profiles equal = %v, want %v", c.field, got, c.sameProfile)
		}
	}
}

func TestOptionsPropagate(t *testing.T) {
	opts := smallOpts()
	opts.Opt = twigopt.DefaultConfig()
	opts.Opt.PrefetchDistance = 35
	art, err := BuildAndOptimize(workload.Drupal, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A different distance must usually change the plan; compare
	// against the default.
	art2, err := BuildAndOptimize(workload.Drupal, 0, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Analysis.Placements) == len(art2.Analysis.Placements) &&
		art.Optimized.TextBytes == art2.Optimized.TextBytes {
		t.Fatal("prefetch distance had no effect on the plan")
	}
}

func TestBuildWithProfileMatchesInProcess(t *testing.T) {
	opts := smallOpts()
	art, err := BuildAndOptimize(workload.Kafka, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuilding from the same profile object must produce an identical
	// plan (the decoupled flow changes nothing).
	art2, err := BuildWithProfile(workload.Kafka, art.Profile, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(art2.Analysis.Placements) != len(art.Analysis.Placements) {
		t.Fatalf("placements differ: %d vs %d",
			len(art2.Analysis.Placements), len(art.Analysis.Placements))
	}
	if art2.Optimized.TextBytes != art.Optimized.TextBytes {
		t.Fatal("optimized binaries differ")
	}
}

func TestBuildWithProfileRejectsMalformedProfile(t *testing.T) {
	// profile.Load cannot check a saved profile against the binary, so
	// it accepts samples naming a branch the binary lacks, an
	// instruction that is not a direct branch, or a block out of range;
	// the analysis must reject each with an error naming the sample
	// rather than panic.
	opts := smallOpts()
	art, err := BuildAndOptimize(workload.Kafka, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i := range art.Profile.Samples {
		if len(art.Profile.Window(i)) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("profile has no sample with history")
	}
	regular := art.Program.Instrs[0].ID
	if art.Program.Instrs[0].Kind.IsBranch() {
		t.Fatal("first instruction is a branch")
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*profile.Profile)
	}{
		{"branch not in binary", func(p *profile.Profile) { p.Samples[victim].Branch = int32(len(art.Program.Instrs)) + 7 }},
		{"not a direct branch", func(p *profile.Profile) { p.Samples[victim].Branch = regular }},
		// The victim is the first sample with a window, so it is the
		// first whose window holds this record; later windows share it.
		{"block out of range", func(p *profile.Profile) { p.Window(victim)[0].ToBlock = 1 << 30 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := art.Profile.Save(&buf); err != nil {
				t.Fatal(err)
			}
			prof, err := profile.Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(prof)
			buf.Reset()
			if err := prof.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if prof, err = profile.Load(&buf); err != nil {
				t.Fatalf("profile.Load rejected the profile: %v", err)
			}
			_, err = BuildWithProfile(workload.Kafka, prof, opts)
			if err == nil {
				t.Fatal("malformed profile accepted")
			}
			if want := fmt.Sprintf("sample %d", victim); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		})
	}
}

func TestBuildWithProfileRejectsWrongBinary(t *testing.T) {
	opts := smallOpts()
	art, err := BuildAndOptimize(workload.Kafka, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildWithProfile(workload.Drupal, art.Profile, opts); err == nil {
		t.Fatal("profile from a different binary accepted")
	}
}
