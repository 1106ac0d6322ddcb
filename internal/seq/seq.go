// Package seq provides access paths to the input string S.
//
// Every builder in this repository reads S either fully in memory (the
// in-memory baselines) or through a Scanner that streams S from a simulated
// disk strictly sequentially (the out-of-core algorithms ERA, WaveFront,
// B²ST). The Scanner enforces and accounts the access discipline the paper's
// I/O analysis rests on: within one scan, positions are visited in
// non-decreasing order; restarting from the beginning is a new scan.
package seq

import (
	"fmt"

	"era/internal/alphabet"
	"era/internal/diskio"
	"era/internal/sim"
)

// String is random access to an input string, terminator included.
// The last symbol is always alphabet.Terminator.
type String interface {
	// Len returns the length of S including the terminator.
	Len() int
	// At returns the symbol at offset i (0 ≤ i < Len()).
	At(i int) byte
	// Alphabet returns the alphabet S was drawn from.
	Alphabet() *alphabet.Alphabet
}

// Mem is an in-memory String; the substrate for the in-memory baselines and
// the correctness oracles.
type Mem struct {
	data  []byte
	alpha *alphabet.Alphabet
}

// NewMem wraps data (which must validate against a) as an in-memory String.
func NewMem(a *alphabet.Alphabet, data []byte) (*Mem, error) {
	if err := a.Validate(data); err != nil {
		return nil, err
	}
	return &Mem{data: data, alpha: a}, nil
}

// Len returns the length of S including the terminator.
func (m *Mem) Len() int { return len(m.data) }

// At returns the symbol at offset i.
func (m *Mem) At(i int) byte { return m.data[i] }

// Alphabet returns the alphabet of S.
func (m *Mem) Alphabet() *alphabet.Alphabet { return m.alpha }

// Bytes returns the underlying bytes (not a copy).
func (m *Mem) Bytes() []byte { return m.data }

// File is a string resident on a simulated disk. It is the substrate for
// the out-of-core algorithms: they may not touch the bytes directly, only
// stream them through Scanners.
type File struct {
	disk  *diskio.Disk
	name  string
	n     int
	alpha *alphabet.Alphabet
	view  *Mem // cached View
}

// Publish validates data and stores it on disk under name, returning the
// File handle.
func Publish(disk *diskio.Disk, name string, a *alphabet.Alphabet, data []byte) (*File, error) {
	if err := a.Validate(data); err != nil {
		return nil, err
	}
	disk.CreateFile(name, data)
	return &File{disk: disk, name: name, n: len(data), alpha: a}, nil
}

// Attach wraps a file that already exists on disk (e.g. a per-worker disk
// handle sharing the same backing bytes). The content is not re-validated.
func Attach(disk *diskio.Disk, name string, a *alphabet.Alphabet) (*File, error) {
	size, err := disk.FileSize(name)
	if err != nil {
		return nil, err
	}
	return &File{disk: disk, name: name, n: int(size), alpha: a}, nil
}

// Len returns the length of S including the terminator.
func (f *File) Len() int { return f.n }

// Name returns the disk file name holding S.
func (f *File) Name() string { return f.name }

// Disk returns the disk holding S.
func (f *File) Disk() *diskio.Disk { return f.disk }

// Alphabet returns the alphabet of S.
func (f *File) Alphabet() *alphabet.Alphabet { return f.alpha }

// View returns an accounting-free random-access view of the file contents.
// It is for tree assembly, validation and queries after construction; the
// builders' construction paths read only through Scanners so the I/O
// accounting stays honest.
func (f *File) View() (*Mem, error) {
	if f.view != nil {
		return f.view, nil
	}
	data, err := f.disk.Bytes(f.name)
	if err != nil {
		return nil, err
	}
	f.view = &Mem{data: data, alpha: f.alpha}
	return f.view, nil
}

// ScanStats counts scan-level activity for one Scanner.
type ScanStats struct {
	Scans        int   // completed or started passes over S
	BytesFetched int64 // bytes pulled from disk into the input buffer
	Refills      int   // buffer refills
	Skips        int   // forward jumps taken by the seek optimization
}

// Scanner streams a File in sequential passes through an input buffer of
// configurable size (the paper's BS buffer, §4.4). Within one pass, Fetch
// offsets must be non-decreasing; Reset starts the next pass. If skipping is
// enabled, gaps larger than the skip threshold are jumped with a short seek
// instead of being read through (the §4.4 disk access optimization).
type Scanner struct {
	f       *File
	r       *diskio.Reader
	clock   *sim.Clock
	model   sim.CostModel
	buf     []byte
	bufOff  int64 // string offset of buf[0]
	bufLen  int
	skip    bool
	skipMin int64 // minimum gap worth a skip-seek
	stats   ScanStats
	lastReq int64 // last requested offset in this pass, for discipline checks
}

// ScannerConfig configures a Scanner.
type ScannerConfig struct {
	// BufSize is the input buffer size in bytes (paper: ~1 MB). Values
	// below one block are rounded up to the model's block size.
	BufSize int
	// SkipSeek enables the §4.4 block-skipping optimization.
	SkipSeek bool
}

// NewScanner opens a sequential scanner over f charging clock.
func (f *File) NewScanner(clock *sim.Clock, cfg ScannerConfig) (*Scanner, error) {
	r, err := f.disk.Open(f.name, clock)
	if err != nil {
		return nil, err
	}
	model := f.disk.Model()
	bs := cfg.BufSize
	if bs < model.BlockSize {
		bs = model.BlockSize
	}
	return &Scanner{
		f:       f,
		r:       r,
		clock:   clock,
		model:   model,
		buf:     make([]byte, bs),
		bufOff:  0,
		bufLen:  0,
		skip:    cfg.SkipSeek,
		skipMin: int64(2 * model.BlockSize),
		lastReq: -1,
	}, nil
}

// Reset begins the next sequential pass over S.
func (s *Scanner) Reset() {
	s.stats.Scans++
	s.bufOff = 0
	s.bufLen = 0
	s.lastReq = -1
}

// Stats returns a snapshot of the scanner's counters.
func (s *Scanner) Stats() ScanStats { return s.stats }

// Fetch copies up to len(dst) symbols of S starting at offset off into dst
// and returns how many were copied (short at end of string). Offsets must be
// non-decreasing within a pass; Fetch panics on regressions, because a
// regression means the algorithm broke the sequential-access discipline the
// paper's I/O cost depends on.
func (s *Scanner) Fetch(dst []byte, off int) (int, error) {
	o := int64(off)
	if o < s.lastReq {
		panic(fmt.Sprintf("seq: non-sequential fetch at %d after %d; missing Reset?", o, s.lastReq))
	}
	s.lastReq = o
	if off >= s.f.n {
		return 0, fmt.Errorf("seq: fetch at %d past end of string %d", off, s.f.n)
	}
	want := len(dst)
	if off+want > s.f.n {
		want = s.f.n - off
	}
	got := 0
	for got < want {
		p := o + int64(got)
		if p >= s.bufOff && p < s.bufOff+int64(s.bufLen) {
			n := copy(dst[got:want], s.buf[p-s.bufOff:s.bufLen])
			got += n
			continue
		}
		if err := s.refill(p); err != nil {
			return got, err
		}
	}
	return got, nil
}

// FetchStrided fills one strided buffer in a single sequential pass over S:
// request i receives the min(stride, Len()−offs[i]) symbols starting at
// offs[i] into buf[i·stride:], and the rest of its slot is left untouched.
// Offsets must be sorted. This is how the R buffer of the paper's
// SubTreePrepare is populated: as the scan streams past, every leaf whose
// window overlaps the current block receives its symbols — windows may
// overlap freely and may be much larger than the input buffer. With
// skipping enabled, stretches of S needed by no request are jumped (§4.4).
//
// No per-request state is kept. The windows cover S contiguously from the
// first one's start up to pos, apart from skipped stretches that lie wholly
// before every incomplete request, so request i has received
// clamp(pos−offs[i], 0, want_i) symbols at any moment.
func (s *Scanner) FetchStrided(offs []int32, buf []byte, stride int) error {
	if len(offs) == 0 {
		return nil
	}
	n := s.f.n
	if stride < 1 || len(buf) < len(offs)*stride {
		return fmt.Errorf("seq: %d strided requests of %d symbols need %d bytes, buffer has %d", len(offs), stride, len(offs)*stride, len(buf))
	}
	for i, o := range offs {
		if o < 0 || int(o) >= n {
			return fmt.Errorf("seq: strided request %d at %d outside string of length %d", i, o, n)
		}
		if i > 0 && o < offs[i-1] {
			return fmt.Errorf("seq: strided requests not sorted at %d", i)
		}
	}
	// end returns the string offset one past the last symbol request i wants.
	end := func(i int) int64 { return int64(min(int(offs[i])+stride, n)) }

	head := 0 // first incomplete request
	pos := int64(offs[0])
	blk := int64(s.model.BlockSize)
	if s.skip {
		pos = pos / blk * blk
	} else {
		pos = 0
	}
	for head < len(offs) {
		// If nothing incomplete needs the gap ahead, jump or read through.
		if next := int64(offs[head]); s.skip && next-pos >= s.skipMin {
			target := next / blk * blk
			s.r.Skip(target - pos)
			s.stats.Skips++
			pos = target
		}
		// With skipping enabled, read only the blocks that requests still
		// need — the point of the §4.4 optimization is to fetch nothing
		// gratuitous once most areas are inactive. Without it, stream at
		// full buffer granularity (the paper's read-everything baseline).
		win := s.buf
		if s.skip {
			// Cover from pos to the furthest byte needed by any request
			// whose window begins in this buffer, in whole blocks.
			bufEnd := pos + int64(len(s.buf))
			needEnd := pos + blk
			for i := head; i < len(offs) && int64(offs[i]) < bufEnd; i++ {
				needEnd = max(needEnd, end(i))
			}
			needEnd = min(needEnd, bufEnd)
			win = s.buf[:(needEnd-pos+blk-1)/blk*blk]
		}
		m, err := s.r.ReadAt(win, pos)
		if m == 0 {
			if err != nil {
				return fmt.Errorf("seq: strided read at %d: %w", pos, err)
			}
			return fmt.Errorf("seq: strided read at %d: no data", pos)
		}
		s.stats.Refills++
		s.stats.BytesFetched += int64(m)
		w0, w1 := pos, pos+int64(m)

		for i := head; i < len(offs) && int64(offs[i]) < w1; i++ {
			off := int64(offs[i])
			from, to := max(off, w0), min(end(i), w1)
			if from < to {
				copy(buf[i*stride+int(from-off):], s.buf[from-w0:to-w0])
			}
		}
		for head < len(offs) && end(head) <= w1 {
			head++
		}
		pos = w1
	}
	return nil
}

// refill loads the buffer so that string offset p is resident. If the gap
// between the current buffer end and p is large and skipping is enabled, the
// head jumps; otherwise the scanner reads through the gap sequentially
// (paper: sequential order is roughly an order of magnitude faster than
// random I/O, so small gaps are read through).
func (s *Scanner) refill(p int64) error {
	bufEnd := s.bufOff + int64(s.bufLen)
	start := bufEnd
	if s.bufLen == 0 && s.bufOff == 0 {
		start = 0
	}
	if p < start {
		panic(fmt.Sprintf("seq: refill backwards to %d before %d", p, start))
	}
	if gap := p - start; gap > 0 {
		if s.skip && gap >= s.skipMin {
			// Jump to the block containing p.
			blk := int64(s.model.BlockSize)
			target := p / blk * blk
			s.r.Skip(target - start)
			s.stats.Skips++
			start = target
		}
		// Any remaining gap is read through below as part of the refill
		// by starting the buffer at `start` and reading forward.
	}
	n, err := s.r.ReadAt(s.buf, start)
	if n == 0 {
		if err != nil {
			return fmt.Errorf("seq: refill at %d: %w", start, err)
		}
		return fmt.Errorf("seq: refill at %d: no data", start)
	}
	s.bufOff = start
	s.bufLen = n
	s.stats.Refills++
	s.stats.BytesFetched += int64(n)
	// Keep reading forward until p is inside the buffer (gap read-through).
	for p >= s.bufOff+int64(s.bufLen) {
		next := s.bufOff + int64(s.bufLen)
		n, err := s.r.ReadAt(s.buf, next)
		if n == 0 {
			if err != nil {
				return fmt.Errorf("seq: refill at %d: %w", next, err)
			}
			return fmt.Errorf("seq: refill at %d: no data", next)
		}
		s.bufOff = next
		s.bufLen = n
		s.stats.Refills++
		s.stats.BytesFetched += int64(n)
	}
	return nil
}
