package twig

import (
	"twig/internal/prefetcher"
	"twig/internal/streams"
)

// Characterization is the paper's §2 workload analysis for one
// application: why the BTB misses (3C classification, Fig. 4) and why
// hardware temporal-stream prefetchers cannot cover the misses
// (stream classes, Fig. 10).
type Characterization struct {
	// BTBMPKI is the baseline misses per kilo-instruction (Fig. 3).
	BTBMPKI float64
	// CompulsoryFrac, CapacityFrac and ConflictFrac partition the
	// misses per Hill & Smith's 3C model (Fig. 4).
	CompulsoryFrac, CapacityFrac, ConflictFrac float64
	// RecurringFrac, NewFrac and NonRepetitiveFrac partition the misses
	// into temporal-stream classes (Fig. 10); only the recurring share
	// is coverable by record-and-replay hardware.
	RecurringFrac, NewFrac, NonRepetitiveFrac float64
	// FrontendBoundFrac approximates the Top-Down share (Fig. 1).
	FrontendBoundFrac float64
}

// Characterize runs the baseline once with the 3C classifier and the
// temporal-stream recorder attached and reports the breakdowns.
func (s *System) Characterize(input int) (Characterization, error) {
	scheme := prefetcher.NewBaseline(s.opts.BTB, 0, true)
	art := s.art
	rec := streams.NewRecorder(func(idx int32) uint64 { return art.Program.Instrs[idx].PC })

	opts := s.opts
	opts.Pipeline.Hooks = rec.Hooks()
	res, err := art.RunProgram(art.Program, input, opts, scheme)
	if err != nil {
		return Characterization{}, err
	}

	ch := Characterization{
		BTBMPKI:           res.MPKI(),
		FrontendBoundFrac: res.FrontendBoundFrac(),
	}
	if tc := scheme.ThreeC(); tc != nil && tc.Total() > 0 {
		tot := float64(tc.Total())
		ch.CompulsoryFrac = float64(tc.Compulsory) / tot
		ch.CapacityFrac = float64(tc.Capacity) / tot
		ch.ConflictFrac = float64(tc.Conflict) / tot
	}
	ch.RecurringFrac, ch.NewFrac, ch.NonRepetitiveFrac = streams.Classify(rec.Misses()).Fractions()
	return ch, nil
}
