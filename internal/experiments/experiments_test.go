package experiments

import (
	"bytes"
	"strings"
	"testing"

	"twig/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper must be registered.
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"fig23", "fig24", "fig25", "fig26", "fig27", "fig28",
		"tab1", "tab2", "tab3",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	// IDs must be unique.
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("fig999"); ok {
		t.Fatal("unknown ID resolved")
	}
}

func TestFig13WorkedExample(t *testing.T) {
	// The worked example needs no simulation and must reproduce the
	// paper's numbers exactly.
	var buf bytes.Buffer
	ctx := NewContext(&buf, 1000)
	e, _ := ByID("fig13")
	if err := ctx.RunOne(e); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"0.25", "0.50", "0.33", "0.67"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig13 output missing probability %s:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "block C") || !strings.Contains(out, "block E") {
		t.Errorf("fig13 did not select C and E:\n%s", out)
	}
}

func TestTab1NeedsNoSimulation(t *testing.T) {
	var buf bytes.Buffer
	ctx := NewContext(&buf, 1000)
	e, _ := ByID("tab1")
	if err := ctx.RunOne(e); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"8192-entry 4-way", "6-wide OOO", "32KB 8-way"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("tab1 missing %q", want)
		}
	}
}

func TestCharacterizationExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiments are not -short")
	}
	var buf bytes.Buffer
	ctx := NewContext(&buf, 60_000)
	ctx.Apps = []workload.App{workload.WordPress}
	for _, id := range []string{"fig1", "fig2", "fig3", "fig7", "fig8", "fig10"} {
		e, _ := ByID(id)
		if err := ctx.RunOne(e); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if !strings.Contains(buf.String(), "wordpress") {
		t.Fatal("experiment output missing the application row")
	}
}

func TestEvaluationExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiments are not -short")
	}
	var buf bytes.Buffer
	ctx := NewContext(&buf, 60_000)
	ctx.Apps = []workload.App{workload.Verilator}
	for _, id := range []string{"fig16", "fig17", "fig19", "fig22"} {
		e, _ := ByID(id)
		if err := ctx.RunOne(e); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "verilator") || !strings.Contains(out, "average") {
		t.Fatal("evaluation output incomplete")
	}
}

func TestContextCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	var buf bytes.Buffer
	ctx := NewContext(&buf, 40_000)
	ctx.Apps = []workload.App{workload.Kafka}
	r1, err := ctx.Scheme(workload.Kafka, 0, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ctx.Scheme(workload.Kafka, 0, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("baseline run not cached (pointer mismatch)")
	}
}

func TestSweepAppsSubset(t *testing.T) {
	ctx := NewContext(&bytes.Buffer{}, 1000)
	sw := ctx.SweepApps()
	if len(sw) != 3 {
		t.Fatalf("sweep set size %d, want 3", len(sw))
	}
	ctx.Apps = []workload.App{workload.Kafka}
	if got := ctx.SweepApps(); len(got) != 1 || got[0] != workload.Kafka {
		t.Fatal("sweep set must respect a restricted app list")
	}
}
