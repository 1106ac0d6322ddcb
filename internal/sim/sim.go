// Package sim provides a deterministic virtual-time cost model for the
// simulated storage and network hardware.
//
// The ERA paper's experiments are disk-bound at multi-gigabyte scale on
// spinning disks and a 16-node cluster. This reproduction runs the real
// algorithms on megabyte-scale inputs and *prices* every counted operation
// (sequential bytes, seeks, network transfers, CPU work) against a model
// calibrated to the paper's hardware class. Virtual time is deterministic
// across runs and machines, so the paper's figures can be regenerated
// exactly, while wall-clock benchmarks remain available via testing.B.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// CostModel holds the virtual hardware parameters. All rates are in bytes or
// operations per second of virtual time.
type CostModel struct {
	// SeqReadBandwidth is the sequential disk read bandwidth (bytes/s).
	SeqReadBandwidth float64
	// SeqWriteBandwidth is the sequential disk write bandwidth (bytes/s).
	SeqWriteBandwidth float64
	// SeekLatency is the cost of one random seek.
	SeekLatency time.Duration
	// BlockSize is the I/O granularity in bytes; partial blocks round up.
	BlockSize int
	// NetBandwidth is the point-to-point network bandwidth (bytes/s) of the
	// cluster switch used by the shared-nothing experiments.
	NetBandwidth float64
	// NetLatency is the per-message network latency.
	NetLatency time.Duration
	// CPURate is symbol-touch throughput (symbol comparisons, copies,
	// branch decisions) in operations per second.
	CPURate float64
	// RandomAccessPenalty multiplies CPU cost for operations flagged as
	// cache-unfriendly (e.g. WaveFront's top-down traversals, TRELLIS's
	// merge-phase node hopping). ERA's sequential passes use 1.
	RandomAccessPenalty float64
	// BroadcastBandwidth is the effective rate at which the input string
	// reaches every node of a shared-nothing cluster (pipelined broadcast
	// through the switch). The paper reports 2.3 min for the 2.6 Gsym
	// genome — an effective ~19 MB/s through their slow switch.
	BroadcastBandwidth float64
}

// DefaultModel returns a model calibrated to the paper's 2011 hardware class:
// a ~100 MB/s SATA disk with 8 ms seeks, a 1 Gb/s switch, and a core that
// touches ~200 M symbols per second on sequential data.
func DefaultModel() CostModel {
	return CostModel{
		SeqReadBandwidth:    100e6,
		SeqWriteBandwidth:   90e6,
		SeekLatency:         8 * time.Millisecond,
		BlockSize:           64 * 1024,
		NetBandwidth:        125e6, // 1 Gb/s
		NetLatency:          200 * time.Microsecond,
		CPURate:             200e6,
		RandomAccessPenalty: 8,
		BroadcastBandwidth:  19e6,
	}
}

// BroadcastTime returns the virtual time to deliver n bytes to every node
// of the cluster (pipelined; independent of node count).
func (m CostModel) BroadcastTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return m.NetLatency + time.Duration(float64(n)/m.BroadcastBandwidth*float64(time.Second))
}

// CombineSharedDisk folds per-worker CPU and disk demands into a completion
// time for a shared-memory, shared-disk machine: every worker needs its own
// CPU + I/O time, and the single disk arm additionally serializes the I/O of
// all workers — whichever bound is larger wins. This reproduces the
// saturation the paper observes beyond ~4 cores (Fig. 12).
func CombineSharedDisk(cpu, io []time.Duration) time.Duration {
	var worst, diskTotal time.Duration
	for i := range cpu {
		if t := cpu[i] + io[i]; t > worst {
			worst = t
		}
		diskTotal += io[i]
	}
	if diskTotal > worst {
		return diskTotal
	}
	return worst
}

// AssignLPT distributes jobs, taken in the given order, each to the worker
// with the least accumulated load (ties to the lowest worker id). With jobs
// pre-sorted by descending cost this is the classic longest-processing-time
// schedule, and it is exactly what a shared queue served by idle workers
// converges to in virtual time: the next job goes to whichever worker frees
// up first. It returns the per-job worker assignment; per-worker loads are
// the sums of their jobs' durations.
func AssignLPT(durations []time.Duration, workers int) []int {
	if workers < 1 {
		workers = 1
	}
	assign := make([]int, len(durations))
	load := make([]time.Duration, workers)
	for j, d := range durations {
		w := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		assign[j] = w
		load[w] += d
	}
	return assign
}

// CombineSharedNothing folds per-node CPU and disk demands into a completion
// time for a cluster: nodes are fully independent, so the slowest node wins.
func CombineSharedNothing(cpu, io []time.Duration) time.Duration {
	var worst time.Duration
	for i := range cpu {
		if t := cpu[i] + io[i]; t > worst {
			worst = t
		}
	}
	return worst
}

// SeqReadTime returns the virtual time to sequentially read n bytes,
// rounded up to whole blocks.
func (m CostModel) SeqReadTime(n int64) time.Duration {
	return m.transfer(n, m.SeqReadBandwidth)
}

// SeqWriteTime returns the virtual time to sequentially write n bytes.
func (m CostModel) SeqWriteTime(n int64) time.Duration {
	return m.transfer(n, m.SeqWriteBandwidth)
}

func (m CostModel) transfer(n int64, bw float64) time.Duration {
	if n <= 0 {
		return 0
	}
	if m.BlockSize > 0 {
		bs := int64(m.BlockSize)
		n = (n + bs - 1) / bs * bs
	}
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// NetTime returns the virtual time to move n bytes across the network,
// including one message latency.
func (m CostModel) NetTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return m.NetLatency + time.Duration(float64(n)/m.NetBandwidth*float64(time.Second))
}

// CPUTime returns the virtual time for ops sequential symbol operations.
func (m CostModel) CPUTime(ops int64) time.Duration {
	if ops <= 0 {
		return 0
	}
	return time.Duration(float64(ops) / m.CPURate * float64(time.Second))
}

// RandomCPUTime returns the virtual time for ops cache-unfriendly operations
// (charged at CPURate / RandomAccessPenalty).
func (m CostModel) RandomCPUTime(ops int64) time.Duration {
	if ops <= 0 {
		return 0
	}
	rate := m.CPURate / m.RandomAccessPenalty
	return time.Duration(float64(ops) / rate * float64(time.Second))
}

// Clock is a virtual-time clock. The zero value reads zero and is ready to
// use. Clock is safe for concurrent use.
type Clock struct {
	mu sync.Mutex
	t  time.Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d and returns the new time.
// Negative d panics: virtual time never rewinds.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %v", d))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
	return c.t
}

// AdvanceTo moves the clock to at least t (no-op if already past).
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
	return c.t
}

// Resource models a device that serves one request at a time (a disk arm, a
// memory bus). Acquire serializes requests in virtual time: a request issued
// at time t with duration d completes at max(t, free)+d, where free is when
// the previous request finished. This reproduces the interference the paper
// observes when multiple cores share one disk (§6.2, Fig. 12).
type Resource struct {
	mu   sync.Mutex
	free time.Duration
}

// Acquire schedules a request of duration d issued at virtual time at and
// returns its completion time.
func (r *Resource) Acquire(at, d time.Duration) time.Duration {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative resource hold %v", d))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := at
	if r.free > start {
		start = r.free
	}
	r.free = start + d
	return r.free
}
