package diskio

import (
	"fmt"
	"io"
	"time"

	"era/internal/sim"
)

// Reader reads a disk file with position tracking. Contiguous reads are
// priced as sequential transfers; repositioning costs a seek. Skip implements
// the paper's disk-seek optimization (§4.4): blocks known to contain no
// needed symbol are jumped over with a short seek instead of being read.
type Reader struct {
	d     *Disk
	clock *sim.Clock
	data  []byte
	pos   int64 // next byte the head would read sequentially; -1 before first read
}

// ReadAt fills p from offset off, charging seek time if off differs from the
// current head position and sequential transfer time for the bytes returned.
// It returns io.EOF when fewer than len(p) bytes are available.
func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("diskio: negative offset %d", off)
	}
	if off >= int64(len(r.data)) {
		return 0, io.EOF
	}
	n := copy(p, r.data[off:])

	var cost time.Duration
	if off != r.pos {
		cost += r.d.model.SeekLatency
		r.d.seeks.Add(1)
	}
	cost += r.d.model.SeqReadTime(int64(n))
	r.d.charge(r.clock, cost)
	r.d.readOps.Add(1)
	r.d.bytesRead.Add(int64(n))
	r.pos = off + int64(n)

	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Skip advances the head past n bytes without reading them. It is priced as
// a short seek (the head stays physically close, per §4.4) and counted in
// SkippedBytes.
func (r *Reader) Skip(n int64) {
	if n <= 0 {
		return
	}
	r.d.charge(r.clock, r.d.model.SeekLatency/4)
	r.d.seeks.Add(1)
	r.d.skipped.Add(n)
	if r.pos < 0 {
		r.pos = 0
	}
	r.pos += n
}

// Writer appends to a disk file, charging sequential write time.
type Writer struct {
	d     *Disk
	clock *sim.Clock
	name  string
}

// Write appends p to the file.
func (w *Writer) Write(p []byte) (int, error) {
	w.d.mu.Lock()
	w.d.files[w.name] = append(w.d.files[w.name], p...)
	w.d.mu.Unlock()

	w.d.charge(w.clock, w.d.model.SeqWriteTime(int64(len(p))))
	w.d.writeOps.Add(1)
	w.d.bytesWritten.Add(int64(len(p)))
	return len(p), nil
}
