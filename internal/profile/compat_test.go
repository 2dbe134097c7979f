package profile_test

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"twig/internal/profile"
	"twig/internal/twigopt"
	"twig/internal/workload"
)

// The fixture is a TWIGPRF1 file that `twigprof -app wordpress -n 2000
// -o` wrote before the log format existed (39,298 bytes: 64 samples,
// most of the bytes are the block execution counts). The placements
// file holds what Analyze made of it under DefaultConfig at the same
// time.
const (
	fixtureV1         = "testdata/wordpress-2000.twigprf1"
	fixturePlacements = "testdata/wordpress-2000.placements"
)

// placements renders an analysis the way the pinned file does, floats
// at full precision.
func placements(prof *profile.Profile, an *twigopt.Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "samples %d covered %d total %d nocandidate %d lowprob %d\n",
		len(prof.Samples), an.CoveredMissCount, an.TotalMissCount, an.NoCandidate, an.LowProbability)
	for _, pl := range an.Placements {
		fmt.Fprintf(&b, "%d %d %s %t %d %d\n", pl.Branch, pl.Block,
			strconv.FormatFloat(pl.Probability, 'g', -1, 64), pl.Coalesced, pl.BranchOffset, pl.TargetOffset)
	}
	return b.String()
}

// TestLoadReadsTWIGPRF1 decodes the v1 fixture into one window per
// sample and checks that its analysis still yields the pinned
// placements, before and after a round trip through TWIGPRF2.
func TestLoadReadsTWIGPRF1(t *testing.T) {
	data, err := os.ReadFile(fixtureV1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fixturePlacements)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for i := range prof.Samples {
		records += len(prof.Window(i))
	}
	if len(prof.Samples) != 64 || records != len(prof.Log) {
		t.Fatalf("%d samples whose windows hold %d records, log has %d; want 64 samples, one window each",
			len(prof.Samples), records, len(prof.Log))
	}
	params, err := workload.ParamsFor(workload.WordPress)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Build(params)
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(prof *profile.Profile) string {
		an, err := twigopt.Analyze(p, prof, twigopt.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return placements(prof, an)
	}
	if got := analyze(prof); got != string(want) {
		t.Fatalf("v1 fixture placements drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	var v2 bytes.Buffer
	if err := prof.Save(&v2); err != nil {
		t.Fatal(err)
	}
	again, err := profile.Load(&v2)
	if err != nil {
		t.Fatal(err)
	}
	if got := analyze(again); got != string(want) {
		t.Fatalf("placements after a TWIGPRF2 round trip differ:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
