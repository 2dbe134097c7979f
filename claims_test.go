package twig_test

import (
	"testing"

	"twig"
)

// TestPaperClaims is the repository's conformance suite: every headline
// qualitative claim of the paper, asserted as an ordering or range over
// all nine applications at a moderate simulation window. Quantitative
// paper-vs-measured numbers live in EXPERIMENTS.md; this test pins the
// shapes so a regression in the simulator, the analysis, or the
// workload calibration fails loudly.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute conformance suite; skipped in -short")
	}
	cfg := twig.DefaultConfig()
	cfg.Instructions = 400_000

	type row struct {
		app                          twig.App
		base, ideal, opt, shot, conf twig.Result
	}
	var rows []row
	for _, app := range twig.Apps() {
		sys, err := twig.NewSystem(app, cfg)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		var r row
		r.app = app
		if r.base, err = sys.Run("baseline", 0); err != nil {
			t.Fatal(err)
		}
		if r.ideal, err = sys.Run("ideal", 0); err != nil {
			t.Fatal(err)
		}
		if r.opt, err = sys.Run("twig", 0); err != nil {
			t.Fatal(err)
		}
		if r.shot, err = sys.Run("shotgun", 0); err != nil {
			t.Fatal(err)
		}
		if r.conf, err = sys.Run("confluence", 0); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}

	byApp := map[twig.App]row{}
	for _, r := range rows {
		byApp[r.app] = r
	}

	// §2, Fig. 3: MPKI spans roughly an order of magnitude with
	// verilator the worst; the average sits in the paper's regime.
	var mpkiSum float64
	for _, r := range rows {
		if r.base.BTBMPKI <= 0 {
			t.Errorf("%s: no BTB misses", r.app)
		}
		if r.app != twig.Verilator && r.base.BTBMPKI >= byApp[twig.Verilator].base.BTBMPKI {
			t.Errorf("%s MPKI %.1f >= verilator %.1f", r.app, r.base.BTBMPKI, byApp[twig.Verilator].base.BTBMPKI)
		}
		mpkiSum += r.base.BTBMPKI
	}
	if avg := mpkiSum / float64(len(rows)); avg < 8 || avg > 60 {
		t.Errorf("average MPKI %.1f outside the paper's regime (paper: 29.7)", avg)
	}

	// §2, Fig. 1: every app is meaningfully frontend-bound.
	for _, r := range rows {
		if f := r.base.FrontendBoundFrac; f < 0.05 || f > 0.95 {
			t.Errorf("%s: frontend-bound %.2f outside a plausible band", r.app, f)
		}
	}

	var twigSum, shotSum, confSum float64
	for _, r := range rows {
		spIdeal := twig.Speedup(r.base, r.ideal)
		spTwig := twig.Speedup(r.base, r.opt)
		spShot := twig.Speedup(r.base, r.shot)
		spConf := twig.Speedup(r.base, r.conf)
		twigSum += spTwig
		shotSum += spShot
		confSum += spConf

		// Fig. 2/16: the ideal BTB bounds every scheme.
		if spTwig > spIdeal+1 {
			t.Errorf("%s: Twig %.1f%% exceeds ideal %.1f%%", r.app, spTwig, spIdeal)
		}
		// Fig. 16: Twig never hurts beyond noise.
		if spTwig < -1 {
			t.Errorf("%s: Twig slowdown %.1f%%", r.app, spTwig)
		}
		// Fig. 17: Twig's coverage beats both hardware prefetchers.
		ct := twig.Coverage(r.base, r.opt)
		cs := twig.Coverage(r.base, r.shot)
		cc := twig.Coverage(r.base, r.conf)
		if ct <= cs || ct <= cc {
			t.Errorf("%s: Twig coverage %.1f%% not above shotgun %.1f%% / confluence %.1f%%",
				r.app, ct, cs, cc)
		}
		// Fig. 19: accuracy is a meaningful fraction, not degenerate.
		if a := r.opt.PrefetchAccuracy; a < 0.05 || a > 0.95 {
			t.Errorf("%s: Twig accuracy %.2f degenerate", r.app, a)
		}
		// Fig. 22: dynamic overhead stays single-digit-ish.
		if oh := r.opt.DynamicOverhead; oh <= 0 || oh > 0.15 {
			t.Errorf("%s: dynamic overhead %.3f outside (0, 0.15]", r.app, oh)
		}
	}

	// Fig. 16's headline: Twig's average beats Shotgun's and
	// Confluence's decisively.
	n := float64(len(rows))
	if twigSum/n < shotSum/n+3 {
		t.Errorf("Twig average %.1f%% does not decisively beat Shotgun %.1f%%", twigSum/n, shotSum/n)
	}
	if twigSum/n < confSum/n+3 {
		t.Errorf("Twig average %.1f%% does not decisively beat Confluence %.1f%%", twigSum/n, confSum/n)
	}
	if twigSum/n < 5 {
		t.Errorf("Twig average speedup %.1f%% below the reproduction band", twigSum/n)
	}
}
