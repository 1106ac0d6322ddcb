package cluster

import (
	"testing"

	"era/internal/alphabet"
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
)

func testFile(t *testing.T) *seq.File {
	t.Helper()
	disk := diskio.NewDisk(sim.DefaultModel())
	data := make([]byte, 100001)
	for i := 0; i < 100000; i++ {
		data[i] = "ACGT"[i%4]
	}
	data[100000] = alphabet.Terminator
	f, err := seq.Publish(disk, "s", alphabet.DNA, data)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewBroadcast(t *testing.T) {
	f := testFile(t)
	cl, err := New(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cl.TransferTime() <= 0 {
		t.Error("multi-node cluster should pay the broadcast")
	}
	// Node 0 is the master's own copy.
	if cl.Node(0) != f {
		t.Error("node 0 should reuse the master file")
	}
	// Every node sees the same content on its own disk.
	for i := 0; i < 4; i++ {
		n := cl.Node(i)
		if n.Len() != f.Len() {
			t.Errorf("node %d: length %d", i, n.Len())
		}
		v, err := n.View()
		if err != nil {
			t.Fatal(err)
		}
		if v.At(12345) != 'C' {
			t.Errorf("node %d: content mismatch", i)
		}
		if i > 0 && n.Disk() == f.Disk() {
			t.Errorf("node %d shares the master's disk", i)
		}
	}
}

func TestSingleNodeFree(t *testing.T) {
	f := testFile(t)
	cl, err := New(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cl.TransferTime() != 0 {
		t.Error("single node should not pay a broadcast")
	}
}

func TestNewRejectsZeroNodes(t *testing.T) {
	if _, err := New(testFile(t), 0); err == nil {
		t.Error("zero nodes accepted")
	}
}

// TestIndependentClocks verifies nodes do not contend: parallel reads on
// different nodes complete at the same virtual time.
func TestIndependentClocks(t *testing.T) {
	f := testFile(t)
	cl, err := New(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	var times []int64
	for i := 1; i < 3; i++ {
		clock := new(sim.Clock)
		sc, err := cl.Node(i).NewScanner(clock, seq.ScannerConfig{BufSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		sc.Reset()
		buf := make([]byte, 4096)
		for off := 0; off < cl.Node(i).Len(); off += 4096 {
			want := 4096
			if off+want > cl.Node(i).Len() {
				want = cl.Node(i).Len() - off
			}
			if _, err := sc.Fetch(buf[:want], off); err != nil {
				t.Fatal(err)
			}
		}
		times = append(times, int64(clock.Now()))
	}
	if times[0] != times[1] {
		t.Errorf("independent nodes diverge: %v", times)
	}
}
