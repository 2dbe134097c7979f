// Checkpoint serialization for the prefetch schemes. Each scheme
// saves its structural tables, accuracy counters and any in-flight
// training context; configuration and the attached frontend are
// construction-time and never serialized.
package prefetcher

import (
	"fmt"

	"twig/internal/checkpoint"
	"twig/internal/isa"
)

// Section tags ("ASSC", "BASE", "IDEA", "SHOT", "CONF").
const (
	secAssoc      = 0x41535343
	secBaseline   = 0x42415345
	secIdeal      = 0x49444541
	secShotgun    = 0x53484f54
	secConfluence = 0x434f4e46
)

// saveAssoc serializes an assoc table's arrays and LRU clock.
func saveAssoc(w *checkpoint.Writer, a *assoc) {
	w.Section(secAssoc)
	w.U64s(a.pcs)
	w.U64s(a.targets)
	kinds := make([]uint8, len(a.kinds))
	for i, k := range a.kinds {
		kinds[i] = uint8(k)
	}
	w.U8s(kinds)
	w.U64s(a.stamp)
	w.U8s(a.footprint)
	w.Bools(a.pref)
	w.U64(a.clock)
}

// restoreAssoc restores an assoc table of identical geometry.
func restoreAssoc(r *checkpoint.Reader, a *assoc) error {
	r.Section(secAssoc)
	r.U64sInto(a.pcs)
	r.U64sInto(a.targets)
	kinds := make([]uint8, len(a.kinds))
	r.U8sInto(kinds)
	r.U64sInto(a.stamp)
	r.U8sInto(a.footprint)
	r.BoolsInto(a.pref)
	a.clock = r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	for i, k := range kinds {
		a.kinds[i] = isa.Kind(k)
	}
	return nil
}

// savePF serializes a PrefetchStats value.
func savePF(w *checkpoint.Writer, pf PrefetchStats) {
	w.I64(pf.Issued)
	w.I64(pf.Used)
	w.I64(pf.Late)
	w.I64(pf.Redundant)
}

// restorePF reads a PrefetchStats value.
func restorePF(r *checkpoint.Reader) PrefetchStats {
	return PrefetchStats{Issued: r.I64(), Used: r.I64(), Late: r.I64(), Redundant: r.I64()}
}

// SaveState implements checkpoint.State. Baselines with 3C
// classification attached cannot be checkpointed: the classifier's
// unbounded shadow structures exist only for characterization runs,
// which never sample or resume.
func (s *Baseline) SaveState(w *checkpoint.Writer) error {
	if s.threeC != nil {
		return fmt.Errorf("prefetcher: baseline with 3C classification cannot be checkpointed")
	}
	w.Section(secBaseline)
	if err := s.b.SaveState(w); err != nil {
		return err
	}
	if err := s.buf.SaveState(w); err != nil {
		return err
	}
	if err := s.stats.SaveState(w); err != nil {
		return err
	}
	w.I64(s.redundant)
	return nil
}

// RestoreState implements checkpoint.State.
func (s *Baseline) RestoreState(r *checkpoint.Reader) error {
	if s.threeC != nil {
		return fmt.Errorf("prefetcher: baseline with 3C classification cannot be restored")
	}
	r.Section(secBaseline)
	if err := s.b.RestoreState(r); err != nil {
		return err
	}
	if err := s.buf.RestoreState(r); err != nil {
		return err
	}
	if err := s.stats.RestoreState(r); err != nil {
		return err
	}
	s.redundant = r.I64()
	return r.Err()
}

// SaveState implements checkpoint.State; the ideal BTB's only state
// is its access counters.
func (s *Ideal) SaveState(w *checkpoint.Writer) error {
	w.Section(secIdeal)
	return s.stats.SaveState(w)
}

// RestoreState implements checkpoint.State.
func (s *Ideal) RestoreState(r *checkpoint.Reader) error {
	r.Section(secIdeal)
	return s.stats.RestoreState(r)
}

// SaveState implements checkpoint.State.
func (s *Shotgun) SaveState(w *checkpoint.Writer) error {
	w.Section(secShotgun)
	saveAssoc(w, s.ubtb)
	saveAssoc(w, s.cbtb)
	if err := s.stats.SaveState(w); err != nil {
		return err
	}
	savePF(w, s.pf)
	w.Int(s.recSlot)
	w.U64(s.recLine)
	w.Bool(s.recValid)
	w.U64(s.recBranchPC)
	w.Len(len(s.frames))
	for _, f := range s.frames {
		saveFrame(w, f)
	}
	w.U8s(s.retFootprint)
	saveFrame(w, s.retRec)
	w.I64(s.CondResolved)
	w.I64(s.CondOutsideRange)
	return nil
}

func saveFrame(w *checkpoint.Writer, f shotgunFrame) {
	w.Int(f.slot)
	w.U64(f.pc)
	w.U64(f.retLine)
	w.Bool(f.valid)
}

func restoreFrame(r *checkpoint.Reader) shotgunFrame {
	return shotgunFrame{slot: r.Int(), pc: r.U64(), retLine: r.U64(), valid: r.Bool()}
}

// RestoreState implements checkpoint.State. The frame stack's
// capacity bounds hardware depth (appends are capacity-gated), so a
// checkpoint recording more frames than the stack can hold is
// structurally incompatible.
func (s *Shotgun) RestoreState(r *checkpoint.Reader) error {
	r.Section(secShotgun)
	if err := restoreAssoc(r, s.ubtb); err != nil {
		return err
	}
	if err := restoreAssoc(r, s.cbtb); err != nil {
		return err
	}
	if err := s.stats.RestoreState(r); err != nil {
		return err
	}
	s.pf = restorePF(r)
	s.recSlot = r.Int()
	s.recLine = r.U64()
	s.recValid = r.Bool()
	s.recBranchPC = r.U64()
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 || n > cap(s.frames) {
		return fmt.Errorf("prefetcher: checkpoint frame count %d exceeds stack capacity %d", n, cap(s.frames))
	}
	s.frames = s.frames[:0]
	for i := 0; i < n; i++ {
		s.frames = append(s.frames, restoreFrame(r))
	}
	r.U8sInto(s.retFootprint)
	s.retRec = restoreFrame(r)
	s.CondResolved = r.I64()
	s.CondOutsideRange = r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if s.recValid && (s.recSlot < 0 || s.recSlot >= len(s.ubtb.pcs)) {
		return fmt.Errorf("prefetcher: checkpoint recording slot out of range")
	}
	if s.retRec.valid && (s.retRec.slot < 0 || s.retRec.slot >= len(s.ubtb.pcs)) {
		return fmt.Errorf("prefetcher: checkpoint return-recording slot out of range")
	}
	for _, f := range s.frames {
		if f.valid && (f.slot < 0 || f.slot >= len(s.ubtb.pcs)) {
			return fmt.Errorf("prefetcher: checkpoint frame slot out of range")
		}
	}
	return nil
}

// SaveState implements checkpoint.State. The last-position table is
// written as its recorded (line, position) pairs in ascending line
// order.
func (c *Confluence) SaveState(w *checkpoint.Writer) error {
	w.Section(secConfluence)
	saveAssoc(w, c.b)
	if err := c.stats.SaveState(w); err != nil {
		return err
	}
	savePF(w, c.pf)
	w.U64s(c.history)
	w.Int(c.histPos)
	n := 0
	for _, pos := range c.lastPos {
		if pos != 0 {
			n++
		}
	}
	w.Len(n)
	for i, pos := range c.lastPos {
		if pos != 0 {
			w.U64(c.firstLine + uint64(i))
			w.Int(int(pos))
		}
	}
	return nil
}

// RestoreState implements checkpoint.State.
func (c *Confluence) RestoreState(r *checkpoint.Reader) error {
	r.Section(secConfluence)
	if err := restoreAssoc(r, c.b); err != nil {
		return err
	}
	if err := c.stats.RestoreState(r); err != nil {
		return err
	}
	c.pf = restorePF(r)
	history := r.U64s(-1)
	histPos := r.Int()
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if len(history) > c.cfg.HistoryLines {
		return fmt.Errorf("prefetcher: checkpoint history length %d exceeds capacity %d", len(history), c.cfg.HistoryLines)
	}
	if histPos < 0 || (c.cfg.HistoryLines > 0 && histPos >= c.cfg.HistoryLines) {
		return fmt.Errorf("prefetcher: checkpoint history cursor out of range")
	}
	for _, line := range history {
		if line-c.firstLine >= uint64(len(c.lastPos)) {
			return fmt.Errorf("prefetcher: checkpoint history line %#x lies outside the program's text", line)
		}
	}
	lastPos := make([]int32, len(c.lastPos))
	for i := 0; i < n; i++ {
		line := r.U64()
		pos := r.Int()
		if r.Err() != nil {
			break
		}
		if pos < 1 || pos > len(history) {
			return fmt.Errorf("prefetcher: checkpoint history position out of range")
		}
		l := line - c.firstLine
		if l >= uint64(len(lastPos)) {
			return fmt.Errorf("prefetcher: checkpoint line %#x lies outside the program's text", line)
		}
		lastPos[l] = int32(pos)
	}
	if err := r.Err(); err != nil {
		return err
	}
	c.history = append(c.history[:0], history...)
	c.histPos = histPos
	c.lastPos = lastPos
	return nil
}
