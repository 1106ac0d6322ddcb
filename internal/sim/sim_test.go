package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSeqReadTimeRoundsToBlocks(t *testing.T) {
	m := DefaultModel()
	one := m.SeqReadTime(1)
	blk := m.SeqReadTime(int64(m.BlockSize))
	if one != blk {
		t.Errorf("1 byte (%v) should cost a whole block (%v)", one, blk)
	}
	two := m.SeqReadTime(int64(m.BlockSize) + 1)
	if two <= blk {
		t.Errorf("block+1 (%v) should cost two blocks (> %v)", two, blk)
	}
	if m.SeqReadTime(0) != 0 {
		t.Error("zero bytes should be free")
	}
}

func TestCPUTimeMonotone(t *testing.T) {
	m := DefaultModel()
	if m.CPUTime(1000) >= m.RandomCPUTime(1000) {
		t.Error("random access must cost more than sequential")
	}
	if m.CPUTime(-5) != 0 {
		t.Error("negative ops should be free")
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Error("zero clock should read 0")
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(3 * time.Millisecond)
	if c.Now() != 8*time.Millisecond {
		t.Errorf("Now = %v, want 8ms", c.Now())
	}
	c.AdvanceTo(6 * time.Millisecond) // no-op: already past
	if c.Now() != 8*time.Millisecond {
		t.Errorf("AdvanceTo backwards moved the clock to %v", c.Now())
	}
	c.AdvanceTo(20 * time.Millisecond)
	if c.Now() != 20*time.Millisecond {
		t.Errorf("AdvanceTo = %v, want 20ms", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Advance should panic")
		}
	}()
	c.Advance(-1)
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	// Two requests issued at t=0 with 10ms each: the second completes at 20.
	if done := r.Acquire(0, 10*time.Millisecond); done != 10*time.Millisecond {
		t.Errorf("first completion %v, want 10ms", done)
	}
	if done := r.Acquire(0, 10*time.Millisecond); done != 20*time.Millisecond {
		t.Errorf("second completion %v, want 20ms", done)
	}
	// A late request starts when it arrives.
	if done := r.Acquire(100*time.Millisecond, 5*time.Millisecond); done != 105*time.Millisecond {
		t.Errorf("late completion %v, want 105ms", done)
	}
}

func TestCombineSharedDisk(t *testing.T) {
	// CPU-bound: the slowest worker wins.
	cpu := []time.Duration{100, 80}
	io := []time.Duration{10, 10}
	if got := CombineSharedDisk(cpu, io); got != 110 {
		t.Errorf("CPU-bound combine = %v, want 110", got)
	}
	// Disk-bound: the serialized arm wins.
	cpu = []time.Duration{10, 10, 10, 10}
	io = []time.Duration{50, 50, 50, 50}
	if got := CombineSharedDisk(cpu, io); got != 200 {
		t.Errorf("disk-bound combine = %v, want 200 (ΣD)", got)
	}
}

func TestCombineSharedNothing(t *testing.T) {
	cpu := []time.Duration{10, 30, 20}
	io := []time.Duration{5, 5, 40}
	if got := CombineSharedNothing(cpu, io); got != 60 {
		t.Errorf("combine = %v, want 60 (slowest node)", got)
	}
}

func TestCombineProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		cpu := make([]time.Duration, len(raw))
		io := make([]time.Duration, len(raw))
		for i, v := range raw {
			cpu[i] = time.Duration(v)
			io[i] = time.Duration(v / 2)
		}
		sd := CombineSharedDisk(cpu, io)
		sn := CombineSharedNothing(cpu, io)
		// Shared-nothing never loses to shared-disk for identical demands,
		// and both dominate the single slowest worker.
		return sd >= sn && sn >= cpu[0]-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBroadcastTime(t *testing.T) {
	m := DefaultModel()
	if m.BroadcastTime(0) != 0 {
		t.Error("empty broadcast should be free")
	}
	small := m.BroadcastTime(1 << 10)
	big := m.BroadcastTime(1 << 30)
	if big <= small {
		t.Error("broadcast time must grow with size")
	}
}

func TestAssignLPT(t *testing.T) {
	d := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	// Skewed jobs in descending order: LPT must beat round-robin dealing.
	jobs := []time.Duration{d(10), d(9), d(2), d(2), d(2), d(2), d(2), d(1)}
	assign := AssignLPT(jobs, 2)
	if len(assign) != len(jobs) {
		t.Fatalf("got %d assignments, want %d", len(assign), len(jobs))
	}
	makespan := func(asg []int) time.Duration {
		load := map[int]time.Duration{}
		var worst time.Duration
		for j, w := range asg {
			load[w] += jobs[j]
			if load[w] > worst {
				worst = load[w]
			}
		}
		return worst
	}
	rr := make([]int, len(jobs))
	for j := range rr {
		rr[j] = j % 2
	}
	if got, naive := makespan(assign), makespan(rr); got > naive {
		t.Errorf("LPT makespan %v worse than round-robin %v", got, naive)
	}
	// First job goes to worker 0 (ties break to the lowest id); assignment
	// is deterministic.
	if assign[0] != 0 {
		t.Errorf("first job assigned to worker %d, want 0", assign[0])
	}
	again := AssignLPT(jobs, 2)
	for j := range assign {
		if assign[j] != again[j] {
			t.Fatalf("assignment not deterministic at job %d", j)
		}
	}
	// Degenerate worker counts.
	if a := AssignLPT(jobs, 0); len(a) != len(jobs) {
		t.Errorf("workers=0 clamp failed")
	}
}
