package seq

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"era/internal/alphabet"
	"era/internal/diskio"
	"era/internal/sim"
)

func testFile(t testing.TB, data []byte) *File {
	t.Helper()
	m := sim.DefaultModel()
	m.BlockSize = 64
	disk := diskio.NewDisk(m)
	f, err := Publish(disk, "s", alphabet.DNA, data)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func dna(n int) []byte {
	out := make([]byte, n+1)
	for i := 0; i < n; i++ {
		out[i] = "ACGT"[(i*7+i/3)%4]
	}
	out[n] = alphabet.Terminator
	return out
}

func TestMemString(t *testing.T) {
	data := dna(100)
	m, err := NewMem(alphabet.DNA, data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 101 {
		t.Errorf("Len = %d", m.Len())
	}
	if m.At(100) != alphabet.Terminator {
		t.Error("terminator lost")
	}
	if _, err := NewMem(alphabet.DNA, []byte("AXC$")); err == nil {
		t.Error("invalid string accepted")
	}
}

func TestScannerSequentialFetch(t *testing.T) {
	data := dna(100000)
	f := testFile(t, data)
	sc, err := f.NewScanner(new(sim.Clock), ScannerConfig{BufSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sc.Reset()
	buf := make([]byte, 1000)
	for off := 0; off < f.Len(); off += 999 {
		want := 1000
		if off+want > f.Len() {
			want = f.Len() - off
		}
		got, err := sc.Fetch(buf[:want], off)
		if err != nil {
			t.Fatalf("Fetch at %d: %v", off, err)
		}
		if !bytes.Equal(buf[:got], data[off:off+got]) {
			t.Fatalf("content mismatch at %d", off)
		}
	}
	if sc.Stats().Scans != 1 {
		t.Errorf("scans = %d, want 1", sc.Stats().Scans)
	}
}

func TestScannerBackwardFetchPanics(t *testing.T) {
	f := testFile(t, dna(1000))
	sc, err := f.NewScanner(new(sim.Clock), ScannerConfig{BufSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	sc.Reset()
	buf := make([]byte, 10)
	if _, err := sc.Fetch(buf, 500); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("backward fetch without Reset should panic")
		}
	}()
	_, _ = sc.Fetch(buf, 100)
}

// fetchStrided runs one pass of FetchStrided over offs into a fresh buffer
// whose bytes start as 0xFF, so a test can see what the fetch left alone.
func fetchStrided(t testing.TB, sc *Scanner, offs []int32, stride int) []byte {
	t.Helper()
	buf := bytes.Repeat([]byte{0xFF}, len(offs)*stride)
	sc.Reset()
	if err := sc.FetchStrided(offs, buf, stride); err != nil {
		t.Fatal(err)
	}
	return buf
}

// checkStrided requires slot i of buf to hold the min(stride, len(data)−offs[i])
// symbols at offs[i], followed by untouched 0xFF padding.
func checkStrided(t testing.TB, data, buf []byte, offs []int32, stride int) {
	t.Helper()
	for i, o := range offs {
		want := min(stride, len(data)-int(o))
		slot := buf[i*stride : (i+1)*stride]
		if !bytes.Equal(slot[:want], data[int(o):int(o)+want]) {
			t.Fatalf("request %d at %d: content mismatch", i, o)
		}
		if !bytes.Equal(slot[want:], bytes.Repeat([]byte{0xFF}, stride-want)) {
			t.Fatalf("request %d at %d: padding past its %d symbols was written", i, o, want)
		}
	}
}

func TestFetchStridedMatchesContent(t *testing.T) {
	data := dna(50000)
	f := testFile(t, data)
	for _, skip := range []bool{false, true} {
		sc, err := f.NewScanner(new(sim.Clock), ScannerConfig{BufSize: 1024, SkipSeek: skip})
		if err != nil {
			t.Fatal(err)
		}
		offs := []int32{
			10,    // overlaps the next request, wider than the input buffer
			500,   // nested inside the first
			30000, // far gap (skippable)
			49995, // clipped at end of string
		}
		checkStrided(t, data, fetchStrided(t, sc, offs, 2000), offs, 2000)
	}
}

func TestFetchStridedSkipReducesIO(t *testing.T) {
	data := dna(1 << 20)
	var offs []int32
	for off := 0; off < 1<<20; off += 64 * 1024 {
		offs = append(offs, int32(off))
	}
	run := func(skip bool) int64 {
		f := testFile(t, data)
		sc, err := f.NewScanner(new(sim.Clock), ScannerConfig{BufSize: 4096, SkipSeek: skip})
		if err != nil {
			t.Fatal(err)
		}
		fetchStrided(t, sc, offs, 32)
		return sc.Stats().BytesFetched
	}
	with := run(true)
	without := run(false)
	if with*4 > without {
		t.Errorf("skip fetched %d bytes, read-through %d; expected ≥4x reduction", with, without)
	}
}

func TestFetchStridedValidation(t *testing.T) {
	f := testFile(t, dna(100))
	sc, err := f.NewScanner(new(sim.Clock), ScannerConfig{BufSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	sc.Reset()
	buf := make([]byte, 8)
	if err := sc.FetchStrided([]int32{-1}, buf, 4); err == nil {
		t.Error("negative offset accepted")
	}
	if err := sc.FetchStrided([]int32{200}, buf, 4); err == nil {
		t.Error("offset past end accepted")
	}
	if err := sc.FetchStrided([]int32{50, 10}, buf, 4); err == nil {
		t.Error("unsorted requests accepted")
	}
	if err := sc.FetchStrided([]int32{10, 50, 60}, buf, 4); err == nil {
		t.Error("buffer shorter than the requests' slots accepted")
	}
	if err := sc.FetchStrided([]int32{10}, buf, 0); err == nil {
		t.Error("zero stride accepted")
	}
	if err := sc.FetchStrided(nil, nil, 4); err != nil {
		t.Errorf("empty request list rejected: %v", err)
	}
}

// batchRequest and fetchBatch are the per-request fetch FetchStrided
// replaced, kept as its reference: every request carries its own
// destination and delivered count.
type batchRequest struct {
	Off int
	Dst []byte
	Got int
}

func (s *Scanner) fetchBatch(reqs []batchRequest) error {
	if len(reqs) == 0 {
		return nil
	}
	n := s.f.n
	for i := range reqs {
		if reqs[i].Off < 0 || reqs[i].Off >= n {
			return fmt.Errorf("seq: batch request %d at %d outside string of length %d", i, reqs[i].Off, n)
		}
		if i > 0 && reqs[i].Off < reqs[i-1].Off {
			return fmt.Errorf("seq: batch requests not sorted at %d", i)
		}
		reqs[i].Got = 0
		if want := n - reqs[i].Off; len(reqs[i].Dst) > want {
			reqs[i].Dst = reqs[i].Dst[:want]
		}
	}

	head := 0 // first incomplete request
	pos := int64(reqs[0].Off)
	blk := int64(s.model.BlockSize)
	if s.skip {
		pos = pos / blk * blk
	} else {
		pos = 0
	}
	for head < len(reqs) {
		if next := int64(reqs[head].Off) + int64(reqs[head].Got); next > pos {
			if s.skip && next-pos >= s.skipMin {
				target := next / blk * blk
				s.r.Skip(target - pos)
				s.stats.Skips++
				pos = target
			}
		}
		win := s.buf
		if s.skip {
			needEnd := pos + blk
			for i := head; i < len(reqs); i++ {
				off := int64(reqs[i].Off)
				if off >= pos+int64(len(s.buf)) {
					break
				}
				if e := off + int64(len(reqs[i].Dst)); e > needEnd {
					needEnd = e
				}
			}
			if needEnd > pos+int64(len(s.buf)) {
				needEnd = pos + int64(len(s.buf))
			}
			w := (needEnd - pos + blk - 1) / blk * blk
			win = s.buf[:w]
		}
		m, err := s.r.ReadAt(win, pos)
		if m == 0 {
			if err != nil {
				return fmt.Errorf("seq: batch read at %d: %w", pos, err)
			}
			return fmt.Errorf("seq: batch read at %d: no data", pos)
		}
		s.stats.Refills++
		s.stats.BytesFetched += int64(m)
		w0, w1 := pos, pos+int64(m)

		for i := head; i < len(reqs); i++ {
			off := int64(reqs[i].Off)
			if off >= w1 {
				break
			}
			from := off + int64(reqs[i].Got)
			if from >= w1 || reqs[i].Got == len(reqs[i].Dst) {
				continue
			}
			if from < w0 {
				return fmt.Errorf("seq: batch window passed request %d (from %d, window %d)", i, from, w0)
			}
			c := copy(reqs[i].Dst[reqs[i].Got:], s.buf[from-w0:m])
			reqs[i].Got += c
		}
		for head < len(reqs) && reqs[head].Got == len(reqs[head].Dst) {
			head++
		}
		pos = w1
	}
	return nil
}

// TestFetchStridedMatchesReference holds FetchStrided to the per-request
// reference over random sorted offsets — duplicates, requests clipped at the
// end of S, windows overlapping one another and wider than the input buffer,
// skipping on and off: the same bytes, the same scan counters, the same
// modeled time and the same disk traffic.
func TestFetchStridedMatchesReference(t *testing.T) {
	data := dna(5000)
	prop := func(rawOffs []uint16, rawStride uint16, skip bool) bool {
		offs := make([]int32, 0, len(rawOffs))
		for _, o := range rawOffs {
			offs = append(offs, int32(int(o)%len(data)))
		}
		slices.Sort(offs)
		stride := 1 + int(rawStride)%1500 // the input buffer is 512 bytes

		fS, fR := testFile(t, data), testFile(t, data)
		clockS, clockR := new(sim.Clock), new(sim.Clock)
		cfg := ScannerConfig{BufSize: 512, SkipSeek: skip}
		scS, err := fS.NewScanner(clockS, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scR, err := fR.NewScanner(clockR, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fetchStrided(t, scS, offs, stride)
		reqs := make([]batchRequest, len(offs))
		for i, o := range offs {
			reqs[i] = batchRequest{Off: int(o), Dst: make([]byte, stride)}
		}
		scR.Reset()
		if err := scR.fetchBatch(reqs); err != nil {
			t.Fatal(err)
		}

		checkStrided(t, data, got, offs, stride)
		for i, r := range reqs {
			if !bytes.Equal(got[i*stride:i*stride+r.Got], r.Dst[:r.Got]) {
				t.Logf("request %d at %d: bytes differ from the reference", i, r.Off)
				return false
			}
		}
		if scS.Stats() != scR.Stats() || clockS.Now() != clockR.Now() || fS.Disk().Stats() != fR.Disk().Stats() {
			t.Logf("stride %d skip %v: stats %+v / %+v, clock %v / %v, disk %+v / %+v", stride, skip,
				scS.Stats(), scR.Stats(), clockS.Now(), clockR.Now(), fS.Disk().Stats(), fR.Disk().Stats())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestView(t *testing.T) {
	data := dna(1000)
	f := testFile(t, data)
	v, err := f.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != len(data) || v.At(5) != data[5] {
		t.Error("view mismatch")
	}
	v2, err := f.View()
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v {
		t.Error("View not cached")
	}
	// Views are accounting-free.
	if got := f.Disk().Stats().BytesRead; got != 0 {
		t.Errorf("view charged %d bytes", got)
	}
}
