package experiments

import (
	"bytes"
	"io"
	"testing"

	"twig/internal/core"
	"twig/internal/runner"
	"twig/internal/workload"
)

// TestSweepsRunOnlyTheirNonDefaultPoints pins that a sweep point at the
// context's operating point is the table run: on a fresh, cache-less
// runner with one app, fig16 and then each sweep execute only the
// points the table does not already hold.
func TestSweepsRunOnlyTheirNonDefaultPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("trains eight profiles and simulates 65 windows")
	}
	ctx := newTestContext(&bytes.Buffer{}, 2, nil)
	for _, step := range []struct {
		id   string
		sims int64
	}{
		{"fig16", 7 + 1},                  // the seven table schemes and the 32K-entry BTB
		{"fig23", 6*4 - 4 - 1},            // 8K is the table's size; the 32K baseline is fig16's
		{"fig25", 6 - 1},                  // 128 entries is the table's buffer
		{"fig26", 9 - 1},                  // 20 cycles is the table's distance
		{"fig28", 8*3 - 3},                // 24 is the table's FTQ depth
		{"ablation-replacement", 3*2 - 2}, // LRU is the table's policy
	} {
		e, ok := ByID(step.id)
		if !ok {
			t.Fatalf("registry missing %s", step.id)
		}
		before := ctx.Runner().Stats().SimRuns
		if err := ctx.RunOne(e); err != nil {
			t.Fatalf("%s: %v", step.id, err)
		}
		if got := ctx.Runner().Stats().SimRuns - before; got != step.sims {
			t.Errorf("%s executed %d sims, want %d", step.id, got, step.sims)
		}
	}
}

// TestVariantIdentity pins runner.TableMembers as the sweeps use it, with
// the context's options as home: a variant's ID and hash follow the
// options it runs under, an Optimized scheme's also follow its training,
// and a point trained under its own options hashes as a fleet worker's
// run at those options (runner.SchemeMember).
func TestVariantIdentity(t *testing.T) {
	c := NewContext(io.Discard, 50_000)
	app := workload.Verilator
	member := func(name string, opts core.Options, tr runner.Training) runner.Member {
		t.Helper()
		ms, err := runner.TableMembers([]string{name}, app, 0, opts, tr, c.Opts)
		if err != nil {
			t.Fatal(err)
		}
		return ms[0]
	}
	onTable := runner.Training{Opts: c.Opts}
	table := member("twig", c.Opts, onTable)
	if want, _ := runner.SchemeMember("twig", app, 0, c.Opts); table != want {
		t.Fatalf("the table run's identity %+v differs from SchemeMember's %+v", table, want)
	}

	// fig28 runs every FTQ depth on the context's binary.
	ftq := func(d int) core.Options {
		o := c.Opts
		o.Pipeline.FTQSize = d
		return o
	}
	tw16, tw24 := member("twig", ftq(16), onTable), member("twig", ftq(24), onTable)
	if tw24 != table {
		t.Errorf("fig28's default depth %+v is not the table run %+v", tw24, table)
	}
	if tw16.ID == tw24.ID || tw16.Hash == tw24.Hash {
		t.Errorf("fig28's FTQ 16 and FTQ 24 twig runs share an identity: %+v, %+v", tw16, tw24)
	}
	if self := member("twig", ftq(16), runner.Training{Opts: ftq(16)}); self.ID == tw16.ID || self.Hash == tw16.Hash {
		t.Error("twig trained at FTQ 16 shares an identity with twig trained at the default depth")
	}
	if member("baseline", ftq(16), onTable) != member("baseline", ftq(16), runner.Training{Opts: ftq(16)}) {
		t.Error("the baseline's identity depends on a training it does not read")
	}

	// fig25's buffer size is no training input, so its points hash as a
	// fleet worker would for their options.
	buf := c.Opts
	buf.PrefetchBuffer = 64
	want, err := runner.SchemeMember("twig", app, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := member("twig", buf, runner.Training{Opts: buf}); got.Hash != want.Hash || got.ID == table.ID {
		t.Errorf("fig25's 64-entry member %+v: want hash %s and an ID apart from the table's %s", got, want.Hash, table.ID)
	}
}
