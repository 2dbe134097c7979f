package telemetry

// Sink receives a simulation's committed-path events: the one channel
// through which the LBR profiler, the verification layer, the stream
// recorder, live endpoints and the event trace observe a run. Events
// come from the measured window only, on the simulation goroutine, in
// program order. The vocabulary is the trace schema's (see Tracer) plus
// the layout-level BlockEnter and Taken, which a Tracer attached as
// pipeline Telemetry.Tracer is not sent. instr counts measured original
// instructions; cycle is fetch-domain except for the prefetch events
// (BPU domain) and EpochMark (retire domain). Embed NopSink to
// implement only the events a consumer needs.
type Sink interface {
	// BlockEnter: execution entered the basic block with stable ID id.
	BlockEnter(id int32)
	// Taken: the branch at layout index from was taken to layout index
	// to, fetched at cycle.
	Taken(from, to int32, cycle float64)
	// BTBMiss: a demand BTB miss of the taken direct branch at layout
	// index idx (address pc, kind cond|jump|call); each one resteers
	// the frontend from decode.
	BTBMiss(instr int64, cycle float64, idx int32, pc uint64, kind string)
	// Resteer: a frontend redirect at the branch at pc; cause is one of
	// CauseBTBMiss, CauseCond, CauseRAS or CauseIBTB.
	Resteer(instr int64, cycle float64, cause string, pc uint64)
	// PrefetchIssue: a brprefetch/brcoalesce staged the entry for the
	// branch at pc, ready at cycle ready.
	PrefetchIssue(instr int64, cycle float64, pc uint64, ready float64)
	// PrefetchDrop: a software prefetch for the branch at pc was
	// redundant (already demand- or buffer-resident) and was dropped.
	PrefetchDrop(instr int64, cycle float64, pc uint64)
	// PrefetchUse: a demand lookup of the branch at pc was served by a
	// prefetched entry; late > 0 means it arrived that many cycles
	// after the lookup.
	PrefetchUse(instr int64, cycle float64, pc uint64, late float64)
	// ICacheMiss: a demand L1i miss of line, with the FDIP run-ahead
	// lead and the exposed (non-hidden) stall.
	ICacheMiss(instr int64, cycle float64, line uint64, lead, exposed float64)
	// EpochMark: epoch boundary n (1-based) after instr measured
	// instructions.
	EpochMark(n, instr int64, cycle float64)
}

var _ Sink = (*Tracer)(nil)

// NopSink implements every Sink method as a no-op. Consumers embed it
// and override the events they observe.
type NopSink struct{}

// BlockEnter implements Sink.
func (NopSink) BlockEnter(int32) {}

// Taken implements Sink.
func (NopSink) Taken(int32, int32, float64) {}

// BTBMiss implements Sink.
func (NopSink) BTBMiss(int64, float64, int32, uint64, string) {}

// Resteer implements Sink.
func (NopSink) Resteer(int64, float64, string, uint64) {}

// PrefetchIssue implements Sink.
func (NopSink) PrefetchIssue(int64, float64, uint64, float64) {}

// PrefetchDrop implements Sink.
func (NopSink) PrefetchDrop(int64, float64, uint64) {}

// PrefetchUse implements Sink.
func (NopSink) PrefetchUse(int64, float64, uint64, float64) {}

// ICacheMiss implements Sink.
func (NopSink) ICacheMiss(int64, float64, uint64, float64, float64) {}

// EpochMark implements Sink.
func (NopSink) EpochMark(int64, int64, float64) {}

// Tee returns a sink that delivers every event to a, then to b. A nil
// side is dropped, so Tee(nil, s) is s itself and adds no call. Pass
// an untyped nil, not a nil pointer: a nil *Tracer in an interface is
// not nil.
func Tee(a, b Sink) Sink {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return tee{a, b}
}

type tee struct{ a, b Sink }

// BlockEnter implements Sink.
func (t tee) BlockEnter(id int32) { t.a.BlockEnter(id); t.b.BlockEnter(id) }

// Taken implements Sink.
func (t tee) Taken(from, to int32, c float64) { t.a.Taken(from, to, c); t.b.Taken(from, to, c) }

// BTBMiss implements Sink.
func (t tee) BTBMiss(i int64, c float64, idx int32, pc uint64, kind string) {
	t.a.BTBMiss(i, c, idx, pc, kind)
	t.b.BTBMiss(i, c, idx, pc, kind)
}

// Resteer implements Sink.
func (t tee) Resteer(i int64, c float64, cause string, pc uint64) {
	t.a.Resteer(i, c, cause, pc)
	t.b.Resteer(i, c, cause, pc)
}

// PrefetchIssue implements Sink.
func (t tee) PrefetchIssue(i int64, c float64, pc uint64, ready float64) {
	t.a.PrefetchIssue(i, c, pc, ready)
	t.b.PrefetchIssue(i, c, pc, ready)
}

// PrefetchDrop implements Sink.
func (t tee) PrefetchDrop(i int64, c float64, pc uint64) {
	t.a.PrefetchDrop(i, c, pc)
	t.b.PrefetchDrop(i, c, pc)
}

// PrefetchUse implements Sink.
func (t tee) PrefetchUse(i int64, c float64, pc uint64, late float64) {
	t.a.PrefetchUse(i, c, pc, late)
	t.b.PrefetchUse(i, c, pc, late)
}

// ICacheMiss implements Sink.
func (t tee) ICacheMiss(i int64, c float64, line uint64, lead, exposed float64) {
	t.a.ICacheMiss(i, c, line, lead, exposed)
	t.b.ICacheMiss(i, c, line, lead, exposed)
}

// EpochMark implements Sink.
func (t tee) EpochMark(n, i int64, c float64) { t.a.EpochMark(n, i, c); t.b.EpochMark(n, i, c) }
