package profile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// Profile serialization: in the paper's deployment, profiles are
// collected on production machines (perf + LBR) and consumed later by
// an offline optimizer at link time. Save/Load provide that decoupling
// here: a compact, versioned binary format (varint encoded) so
// profiles can be written once and analyzed under many configurations.
//
// Save writes TWIGPRF2 (all varints unless noted; float64s are their
// IEEE-754 bits, little-endian, so a round trip is exact):
//
//	magic        "TWIGPRF2"
//	instructions uvarint
//	blockExecs   uvarint count, then count uvarints
//	missCounts   uvarint count, then count x (uvarint branchID-delta,
//	             uvarint misses) sorted by branch ID
//	log          uvarint count, then per record: uvarint from,
//	             uvarint to, float64 cycle
//	samples      uvarint count, then per sample: uvarint branchID,
//	             float64 missCycle, signed varint End minus the
//	             previous sample's End (0 before the first), uvarint Len
//
// Load also reads TWIGPRF1, the format before the log, which
// `twigprof -o` files and older cache entries use. Its header is the
// same up to missCounts; then come the samples, each with its own copy
// of the ring:
//
//	samples      uvarint count, then per sample: uvarint branchID,
//	             float64 missCycle, uvarint histLen, then histLen x
//	             (uvarint from, uvarint to, float64 missCycle-minus-
//	             cycle), most recent first
//
// A TWIGPRF1 sample decodes into its own window at the end of the log,
// with each record's cycle recomputed as missCycle minus the stored
// delta.

const (
	profileMagic   = "TWIGPRF2"
	profileMagicV1 = "TWIGPRF1"
)

// maxCount bounds every count a decoder accepts: a larger one is an
// implausible (corrupt or hostile) profile, not a large one.
const maxCount = 1 << 28

// encoder writes varints and float bits, keeping the first error.
type encoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *encoder) write(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) uvarint(v uint64) { e.write(e.buf[:binary.PutUvarint(e.buf[:], v)]) }

func (e *encoder) varint(v int64) { e.write(e.buf[:binary.PutVarint(e.buf[:], v)]) }

func (e *encoder) float(f float64) {
	binary.LittleEndian.PutUint64(e.buf[:8], math.Float64bits(f))
	e.write(e.buf[:8])
}

// Save writes the profile to w in the TWIGPRF2 format.
func (p *Profile) Save(w io.Writer) error {
	e := &encoder{w: bufio.NewWriter(w)}
	e.write([]byte(profileMagic))
	e.uvarint(uint64(p.Instructions))
	e.uvarint(uint64(len(p.BlockExecs)))
	for _, c := range p.BlockExecs {
		e.uvarint(uint64(c))
	}

	branches := make([]int32, 0, len(p.MissCounts))
	for b := range p.MissCounts {
		branches = append(branches, b)
	}
	sort.Slice(branches, func(i, j int) bool { return branches[i] < branches[j] })
	e.uvarint(uint64(len(branches)))
	prev := int32(0)
	for _, b := range branches {
		e.uvarint(uint64(b - prev))
		prev = b
		e.uvarint(uint64(p.MissCounts[b]))
	}

	e.uvarint(uint64(len(p.Log)))
	for _, rec := range p.Log {
		e.uvarint(uint64(rec.FromBlock))
		e.uvarint(uint64(rec.ToBlock))
		e.float(rec.Cycle)
	}
	e.uvarint(uint64(len(p.Samples)))
	prevEnd := int32(0)
	for _, s := range p.Samples {
		e.uvarint(uint64(s.Branch))
		e.float(s.MissCycle)
		e.varint(int64(s.End) - int64(prevEnd))
		prevEnd = s.End
		e.uvarint(uint64(s.Len))
	}
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

// decoder reads varints and float bits, keeping the first error; after
// an error every read returns zero.
type decoder struct {
	r   *bufio.Reader
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	d.err = err
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(d.r)
	d.err = err
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	var b [8]byte
	_, d.err = io.ReadFull(d.r, b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// count reads a count and rejects one above maxCount.
func (d *decoder) count(what string) int {
	n := d.uvarint()
	if n > maxCount {
		d.fail(fmt.Errorf("implausible %s count %d", what, n))
	}
	return int(n)
}

// fail records err unless an earlier error is pending.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Load reads a profile written by Save, in either format.
func Load(r io.Reader) (*Profile, error) {
	d := &decoder{r: bufio.NewReader(r)}
	head := make([]byte, len(profileMagic))
	if _, err := io.ReadFull(d.r, head); err != nil {
		return nil, fmt.Errorf("profile: reading magic: %w", err)
	}
	v1 := string(head) == profileMagicV1
	if !v1 && string(head) != profileMagic {
		return nil, fmt.Errorf("profile: bad magic %q", head)
	}

	p := &Profile{MissCounts: map[int32]int64{}}
	p.Instructions = int64(d.uvarint())
	// Slices grow as records arrive rather than from a count the input
	// claims, so a short input cannot make the decoder allocate much.
	n := d.count("block")
	for i := 0; i < n && d.err == nil; i++ {
		p.BlockExecs = append(p.BlockExecs, int64(d.uvarint()))
	}
	n = d.count("miss-branch")
	prev := int32(0)
	for i := 0; i < n && d.err == nil; i++ {
		branch := prev + int32(d.uvarint())
		prev = branch
		p.MissCounts[branch] = int64(d.uvarint())
	}
	if v1 {
		d.samplesV1(p)
	} else {
		d.logAndSamples(p)
	}
	if d.err != nil {
		return nil, fmt.Errorf("profile: %w", d.err)
	}
	return p, nil
}

// logAndSamples reads TWIGPRF2's log and samples and checks that every
// window lies inside the log.
func (d *decoder) logAndSamples(p *Profile) {
	n := d.count("log record")
	for i := 0; i < n && d.err == nil; i++ {
		from, to := int32(d.uvarint()), int32(d.uvarint())
		p.Log = append(p.Log, Record{FromBlock: from, ToBlock: to, Cycle: d.float()})
	}
	n = d.count("sample")
	end := int64(0)
	for i := 0; i < n && d.err == nil; i++ {
		s := Sample{Branch: int32(d.uvarint()), MissCycle: d.float()}
		end += d.varint()
		length := d.uvarint()
		switch {
		case length > LBRDepth:
			d.fail(fmt.Errorf("sample %d: window of %d records exceeds LBR depth", i, length))
		case end < int64(length) || end > int64(len(p.Log)):
			d.fail(fmt.Errorf("sample %d: window [%d-%d, %d) lies outside the %d-record log",
				i, end, length, end, len(p.Log)))
		}
		s.End, s.Len = int32(end), int32(length)
		p.Samples = append(p.Samples, s)
	}
}

// samplesV1 reads TWIGPRF1's samples, appending each history to the log
// as the sample's own window.
func (d *decoder) samplesV1(p *Profile) {
	n := d.count("sample")
	for i := 0; i < n && d.err == nil; i++ {
		s := Sample{Branch: int32(d.uvarint()), MissCycle: d.float()}
		hl := d.uvarint()
		switch {
		case hl > LBRDepth:
			d.fail(fmt.Errorf("sample %d: history length %d exceeds LBR depth", i, hl))
		case len(p.Log)+int(hl) > math.MaxInt32:
			d.fail(fmt.Errorf("sample %d: implausible log length", i))
		}
		if d.err != nil {
			return
		}
		// The history is most recent first, so it fills the window,
		// which is in taken order, from its end.
		start := len(p.Log)
		p.Log = append(p.Log, make([]Record, hl)...)
		for j := len(p.Log) - 1; j >= start; j-- {
			from, to := int32(d.uvarint()), int32(d.uvarint())
			p.Log[j] = Record{FromBlock: from, ToBlock: to, Cycle: s.MissCycle - d.float()}
		}
		s.End, s.Len = int32(len(p.Log)), int32(hl)
		p.Samples = append(p.Samples, s)
	}
}
