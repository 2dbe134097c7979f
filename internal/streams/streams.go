// Package streams classifies BTB-miss sequences into the temporal
// stream categories of Wenisch et al. that the paper's Fig. 10 reports:
//
//   - recurring: the miss continues a previously observed stream (its
//     predecessor→successor transition repeats), so temporal-stream
//     prefetchers (Confluence's SHIFT, Shotgun's footprint replay) can
//     in principle cover it;
//   - new: the missed address has been seen before, but in a new
//     context (a stream head or a never-before-seen transition into a
//     known address);
//   - non-repetitive: the address misses exactly once in the whole
//     window — no history-based mechanism can cover it.
//
// The classification is a two-pass, whole-trace analysis (temporal
// stream prefetchers are usually evaluated this way: against an oracle
// history of unbounded size), so it upper-bounds what record-and-replay
// hardware can cover — the paper's argument for why Confluence and
// Shotgun leave the "new" and "non-repetitive" fractions (≈36% and
// ≈12% on average) on the table.
package streams

import "twig/internal/telemetry"

// Recorder collects the BTB-miss address sequence of a run. Attach it
// as the run's pipeline.Config.Sink.
type Recorder struct {
	telemetry.NopSink
	misses []uint64
}

// NewRecorder builds an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// BTBMiss implements telemetry.Sink: it appends the missed branch's PC.
func (r *Recorder) BTBMiss(_ int64, _ float64, _ int32, pc uint64, _ string) {
	r.misses = append(r.misses, pc)
}

// Misses returns the recorded miss addresses in order.
func (r *Recorder) Misses() []uint64 { return r.misses }

// Classification is the Fig. 10 breakdown.
type Classification struct {
	Recurring, New, NonRepetitive int64
}

// Total returns the number of classified misses.
func (c Classification) Total() int64 { return c.Recurring + c.New + c.NonRepetitive }

// Fractions returns the three shares in [0,1] (zero if no misses).
func (c Classification) Fractions() (recurring, newStream, nonRepetitive float64) {
	t := float64(c.Total())
	if t == 0 {
		return 0, 0, 0
	}
	return float64(c.Recurring) / t, float64(c.New) / t, float64(c.NonRepetitive) / t
}

// Classify performs the two-pass analysis over a miss sequence.
func Classify(misses []uint64) Classification {
	type pair struct{ a, b uint64 }
	transCount := make(map[pair]int, len(misses))
	addrCount := make(map[uint64]int, len(misses))
	for i, m := range misses {
		addrCount[m]++
		if i > 0 {
			transCount[pair{misses[i-1], m}]++
		}
	}
	var c Classification
	for i, m := range misses {
		switch {
		case i > 0 && transCount[pair{misses[i-1], m}] >= 2:
			// The transition into this miss repeats somewhere in the
			// trace: part of a recurring stream that record-and-replay
			// can cover.
			c.Recurring++
		case addrCount[m] >= 2:
			c.New++
		default:
			c.NonRepetitive++
		}
	}
	return c
}
