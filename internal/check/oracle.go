package check

import (
	"fmt"
	"math"
	"strings"

	"twig/internal/core"
	"twig/internal/metrics"
	"twig/internal/pipeline"
)

// IPCTolerance is the slack allowed on the "ideal BTB bounds every
// scheme" IPC law. The bound is not bit-exact in the model: Shotgun
// runs with its published 1536-entry RAS (the ideal-BTB study keeps
// Table 1's 32 entries), and hardware prefetchers also warm the
// I-cache, so a scheme can edge past ideal by a sliver of second-order
// effect while the first-order law still holds.
const IPCTolerance = 0.01

// SchemeRun pairs a scheme's name with its run Result for the
// differential oracles.
type SchemeRun struct {
	Name string
	Res  *pipeline.Result
}

// CrossScheme asserts the partial-order laws between runs of the same
// workload/input under different BTB schemes:
//
//   - the ideal BTB never misses and never resteers on a BTB miss;
//   - every scheme's miss count is bounded below by ideal's (zero) and
//     its coverage is bounded above by ideal's;
//   - the baseline run issues no prefetches, so its coverage over
//     itself is zero — the floor under every prefetcher's clamped
//     coverage;
//   - signed coverage is finite and within [-100, 100], clamped
//     coverage within [0, 100];
//   - no scheme's IPC exceeds the ideal BTB's beyond IPCTolerance;
//   - runs of a scheme whose core.Schemes entry is BoundedByBaseline
//     (hierarchy, shadow) never miss more than the baseline. Such a
//     scheme drives its L1/main BTB with exactly the baseline's lookup
//     and resolve-fill stream (the backing level / shadow buffer only
//     converts misses into hits, never writing the main structure
//     outside the resolve fill), so the bound is structural — see
//     SCHEMES.md — and holds exactly, per kind and in aggregate.
//
// base and ideal are the baseline and ideal-BTB runs; schemes lists
// every other configuration (Twig, Shotgun, Confluence, extensions).
func CrossScheme(base, ideal *pipeline.Result, schemes []SchemeRun) error {
	var v []string
	fail := func(format string, args ...any) {
		v = append(v, fmt.Sprintf(format, args...))
	}

	if m := ideal.BTB.DirectMisses(); m != 0 {
		fail("ideal BTB reports %d direct misses, want 0", m)
	}
	if ideal.BTBResteers != 0 {
		fail("ideal BTB reports %d BTB resteers, want 0", ideal.BTBResteers)
	}
	if base.Prefetch.Issued != 0 {
		fail("baseline issued %d prefetches, want 0", base.Prefetch.Issued)
	}
	if self := metrics.Coverage(base.BTB.DirectMisses(), base.BTB.DirectMisses()); self != 0 {
		fail("baseline self-coverage %f, want 0", self)
	}

	baseMisses := base.BTB.DirectMisses()
	idealCov := metrics.Coverage(baseMisses, ideal.BTB.DirectMisses())
	idealIPC := ideal.IPC()
	all := append([]SchemeRun{{Name: "baseline", Res: base}}, schemes...)
	for _, s := range all {
		misses := s.Res.BTB.DirectMisses()
		if misses < ideal.BTB.DirectMisses() {
			fail("%s: %d misses below ideal's %d", s.Name, misses, ideal.BTB.DirectMisses())
		}
		cov := metrics.Coverage(baseMisses, misses)
		signed := metrics.CoverageSigned(baseMisses, misses)
		if cov < 0 || cov > 100 {
			fail("%s: clamped coverage %f outside [0, 100]", s.Name, cov)
		}
		if math.IsNaN(signed) || math.IsInf(signed, 0) || signed < -100 || signed > 100 {
			fail("%s: signed coverage %f outside [-100, 100]", s.Name, signed)
		}
		if cov > idealCov {
			fail("%s: coverage %f exceeds ideal's %f", s.Name, cov, idealCov)
		}
		if ipc := s.Res.IPC(); ipc > idealIPC*(1+IPCTolerance) {
			fail("%s: IPC %f exceeds ideal's %f beyond tolerance", s.Name, ipc, idealIPC)
		}
		if spec, err := core.LookupScheme(s.Name); err == nil && spec.BoundedByBaseline {
			if misses > baseMisses {
				fail("%s: %d direct misses exceed baseline's %d (structural bound)", s.Name, misses, baseMisses)
			}
			for k := range s.Res.BTB.Misses {
				if s.Res.BTB.Misses[k] > base.BTB.Misses[k] {
					fail("%s: kind %d misses %d exceed baseline's %d (structural bound)",
						s.Name, k, s.Res.BTB.Misses[k], base.BTB.Misses[k])
				}
			}
		}
	}

	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("check: cross-scheme oracle: %d law(s) violated:\n  %s",
		len(v), strings.Join(v, "\n  "))
}
