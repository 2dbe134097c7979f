package twig_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"twig"
)

func smallConfig() twig.Config {
	cfg := twig.DefaultConfig()
	cfg.Instructions = 100_000
	return cfg
}

func TestAppsCatalog(t *testing.T) {
	apps := twig.Apps()
	if len(apps) != 9 {
		t.Fatalf("got %d applications, want 9", len(apps))
	}
	want := map[twig.App]bool{
		twig.Cassandra: true, twig.Drupal: true, twig.FinagleChirper: true,
		twig.FinagleHTTP: true, twig.Kafka: true, twig.MediaWiki: true,
		twig.Tomcat: true, twig.Verilator: true, twig.WordPress: true,
	}
	for _, a := range apps {
		if !want[a] {
			t.Errorf("unexpected application %q", a)
		}
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys, err := twig.NewSystem(twig.Verilator, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.App() != twig.Verilator {
		t.Fatal("App() mismatch")
	}
	base, err := sys.Run("baseline", 0)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := sys.Run("twig", 0)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := sys.Run("ideal", 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.IPC <= 0 || base.BTBMPKI <= 0 {
		t.Fatalf("degenerate baseline %+v", base)
	}
	if sp := twig.Speedup(base, opt); sp <= 0 {
		t.Fatalf("Twig speedup %f, want > 0 on verilator", sp)
	}
	if twig.Coverage(base, opt) <= 0 {
		t.Fatal("no coverage")
	}
	if ideal.BTBMPKI != 0 {
		t.Fatal("ideal BTB has misses")
	}
	if opt.PrefetchAccuracy <= 0 || opt.PrefetchAccuracy > 1 {
		t.Fatalf("accuracy %f outside (0,1]", opt.PrefetchAccuracy)
	}
	an := sys.Analysis()
	if an.Sites == 0 || an.InjectedInstructions == 0 || an.StaticOverhead <= 0 {
		t.Fatalf("empty analysis summary %+v", an)
	}
}

func TestPublicAPIPriorWork(t *testing.T) {
	sys, err := twig.NewSystem(twig.Cassandra, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("shotgun", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("confluence", 0); err != nil {
		t.Fatal(err)
	}
}

func TestConfigOverrides(t *testing.T) {
	cfg := smallConfig()
	cfg.BTBEntries = 2048
	cfg.DisableCoalescing = true
	sys, err := twig.NewSystem(twig.WordPress, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Analysis().CoalesceTableEntries != 0 {
		t.Fatal("DisableCoalescing ignored")
	}
	base, err := sys.Run("baseline", 0)
	if err != nil {
		t.Fatal(err)
	}
	// A 2K-entry BTB must miss more than the default 8K.
	big, err := twig.NewSystem(twig.WordPress, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	base8k, err := big.Run("baseline", 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.BTBMPKI <= base8k.BTBMPKI {
		t.Fatalf("2K BTB MPKI %.2f <= 8K MPKI %.2f", base.BTBMPKI, base8k.BTBMPKI)
	}
}

func TestDeterministicResults(t *testing.T) {
	s1, err := twig.NewSystem(twig.Kafka, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := twig.NewSystem(twig.Kafka, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := s1.Run("twig", 0)
	r2, _ := s2.Run("twig", 0)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("identical configurations produced different results:\n%+v\n%+v", r1, r2)
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := twig.ExperimentIDs()
	if len(ids) < 31 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
}

func TestRunExperimentsUnknownID(t *testing.T) {
	for _, only := range [][]string{{"fig999"}, {"tab1", "fig999"}} {
		var buf bytes.Buffer
		err := twig.RunExperiments(&buf, 1000, only, nil)
		if err == nil {
			t.Fatalf("%v: unknown experiment ID accepted", only)
		}
		if buf.Len() != 0 {
			t.Fatalf("%v: rendered %d bytes before rejecting the unknown ID", only, buf.Len())
		}
	}
}

func TestRunExperimentsSelected(t *testing.T) {
	var buf bytes.Buffer
	if err := twig.RunExperiments(&buf, 1000, []string{"tab1", "fig13"}, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tab1") || !strings.Contains(out, "fig13") {
		t.Fatal("selected experiments did not run")
	}
}

func TestCharacterize(t *testing.T) {
	sys, err := twig.NewSystem(twig.Verilator, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sys.Characterize(0)
	if err != nil {
		t.Fatal(err)
	}
	if ch.BTBMPKI <= 0 {
		t.Fatal("no misses characterized")
	}
	sum3C := ch.CompulsoryFrac + ch.CapacityFrac + ch.ConflictFrac
	if sum3C < 0.999 || sum3C > 1.001 {
		t.Fatalf("3C fractions sum to %f", sum3C)
	}
	sumStreams := ch.RecurringFrac + ch.NewFrac + ch.NonRepetitiveFrac
	if sumStreams < 0.999 || sumStreams > 1.001 {
		t.Fatalf("stream fractions sum to %f", sumStreams)
	}
	if ch.FrontendBoundFrac <= 0 || ch.FrontendBoundFrac > 1 {
		t.Fatalf("frontend-bound %f out of range", ch.FrontendBoundFrac)
	}
}

func TestNewSystemUnknownApp(t *testing.T) {
	if _, err := twig.NewSystem(twig.App("not-an-app"), smallConfig()); err == nil {
		t.Fatal("unknown application accepted")
	}
}

// TestRunSchemesMatchesAccessors: grouped shared-stream simulation
// returns exactly what single-scheme System.Run calls return, and the
// Check configuration (sequential verified fallback) agrees too.
func TestRunSchemesMatchesAccessors(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows")
	}
	sys, err := twig.NewSystem(twig.Verilator, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := sys.RunSchemes(0, "baseline", "twig", "shotgun", "ideal", "confluence")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"baseline", "twig", "shotgun", "ideal", "confluence"} {
		want, err := sys.Run(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(grouped[name], want) {
			t.Fatalf("%s: grouped %+v differs from solo %+v", name, grouped[name], want)
		}
	}

	cfg := smallConfig()
	cfg.Check = true
	checked, err := twig.NewSystem(twig.Verilator, cfg)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := checked.RunSchemes(0, "baseline", "twig")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(verified["baseline"], grouped["baseline"]) ||
		!reflect.DeepEqual(verified["twig"], grouped["twig"]) {
		t.Fatal("verified sequential RunSchemes differs from grouped")
	}

	if _, err := sys.RunSchemes(0, "warp-drive"); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("unknown scheme: err=%v", err)
	}
}
