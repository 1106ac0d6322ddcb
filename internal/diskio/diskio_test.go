package diskio

import (
	"io"
	"testing"

	"era/internal/sim"
)

func testDisk() *Disk {
	m := sim.DefaultModel()
	m.BlockSize = 64
	return NewDisk(m)
}

func TestFileLifecycle(t *testing.T) {
	d := testDisk()
	d.CreateFile("a", []byte("hello"))
	n, err := d.FileSize("a")
	if err != nil || n != 5 {
		t.Fatalf("FileSize = %d, %v", n, err)
	}
	if _, err := d.FileSize("missing"); err == nil {
		t.Error("missing file reported a size")
	}
	d.RemoveFile("a")
	if _, err := d.FileSize("a"); err == nil {
		t.Error("removed file still present")
	}
}

func TestReaderSequentialVsSeek(t *testing.T) {
	d := testDisk()
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(i)
	}
	d.CreateFile("f", data)
	clock := new(sim.Clock)
	r, err := d.Open("f", clock)
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 100)
	if _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Seeks != 1 {
		t.Errorf("first read: %d seeks, want 1", d.Stats().Seeks)
	}
	// Contiguous read: no extra seek.
	if _, err := r.ReadAt(buf, 100); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Seeks != 1 {
		t.Errorf("contiguous read added a seek (%d)", d.Stats().Seeks)
	}
	// Random read: one more seek.
	if _, err := r.ReadAt(buf, 500); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Seeks != 2 {
		t.Errorf("random read: %d seeks, want 2", d.Stats().Seeks)
	}
	if clock.Now() == 0 {
		t.Error("reads did not charge the clock")
	}
}

func TestReaderEOF(t *testing.T) {
	d := testDisk()
	d.CreateFile("f", []byte("abc"))
	r, err := d.Open("f", new(sim.Clock))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := r.ReadAt(buf, 0)
	if n != 3 || err != io.EOF {
		t.Errorf("short read = %d, %v; want 3, EOF", n, err)
	}
	if _, err := r.ReadAt(buf, 3); err != io.EOF {
		t.Errorf("read past end = %v, want EOF", err)
	}
	if _, err := r.ReadAt(buf, -1); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestSkipCheaperThanRead(t *testing.T) {
	data := make([]byte, 1<<20)
	run := func(skip bool) (int64, int64) {
		d := testDisk()
		d.CreateFile("f", data)
		clock := new(sim.Clock)
		r, _ := d.Open("f", clock)
		buf := make([]byte, 64)
		if _, err := r.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if skip {
			r.Skip(1 << 19)
			if _, err := r.ReadAt(buf, int64(1<<19)+64); err != nil {
				t.Fatal(err)
			}
		} else {
			// Read through the same distance.
			big := make([]byte, 1<<19)
			if _, err := r.ReadAt(big, 64); err != nil {
				t.Fatal(err)
			}
			if _, err := r.ReadAt(buf, int64(1<<19)+64); err != nil {
				t.Fatal(err)
			}
		}
		return int64(clock.Now()), d.Stats().BytesRead
	}
	skipTime, skipBytes := run(true)
	readTime, readBytes := run(false)
	if skipTime >= readTime {
		t.Errorf("skip (%d) not cheaper than reading through (%d)", skipTime, readTime)
	}
	if skipBytes >= readBytes {
		t.Errorf("skip read %d bytes, read-through %d", skipBytes, readBytes)
	}
}

func TestWriterCharges(t *testing.T) {
	d := testDisk()
	clock := new(sim.Clock)
	w := d.Create("out", clock)
	payload := make([]byte, 10000)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if clock.Now() == 0 {
		t.Error("write did not charge the clock")
	}
	if n, _ := d.FileSize("out"); n != 10000 {
		t.Errorf("file size = %d", n)
	}
	st := d.Stats()
	if st.BytesWritten != 10000 || st.WriteOps != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSharedArmContention(t *testing.T) {
	d := testDisk()
	data := make([]byte, 1<<16)
	d.CreateFile("f", data)
	c1, c2 := new(sim.Clock), new(sim.Clock)
	r1, _ := d.Open("f", c1)
	r2, _ := d.Open("f", c2)
	buf := make([]byte, 1<<16)
	if _, err := r1.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// Both issued at their local t=0; the second must queue behind the
	// first on the shared arm.
	if c2.Now() <= c1.Now() {
		t.Errorf("second reader (%v) did not queue behind first (%v)", c2.Now(), c1.Now())
	}
}
