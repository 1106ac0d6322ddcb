// Package cluster simulates the shared-nothing architecture of §5: a set of
// nodes, each with a private disk and memory, fed the input string once over
// the network. There is no shared state between nodes after the broadcast —
// which is exactly why ERA's merge-free construction parallelizes on it.
package cluster

import (
	"fmt"
	"time"

	"era/internal/diskio"
	"era/internal/seq"
)

// Cluster is a set of nodes each holding a private copy of the input
// string on its own simulated disk.
type Cluster struct {
	nodes    []*seq.File
	transfer time.Duration
}

// New broadcasts the string behind f to n nodes. Node 0 is the master and
// reuses f's disk (the string originates there); nodes 1..n-1 receive a
// copy priced at the model's broadcast bandwidth.
func New(f *seq.File, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	model := f.Disk().Model()
	raw, err := f.Disk().Bytes(f.Name())
	if err != nil {
		return nil, err
	}
	c := &Cluster{nodes: make([]*seq.File, n)}
	c.nodes[0] = f
	for i := 1; i < n; i++ {
		disk := diskio.NewDisk(model)
		disk.CreateFile(f.Name(), raw)
		nf, err := seq.Attach(disk, f.Name(), f.Alphabet())
		if err != nil {
			return nil, err
		}
		c.nodes[i] = nf
	}
	if n > 1 {
		c.transfer = model.BroadcastTime(int64(len(raw)))
	}
	return c, nil
}

// Node returns node i's private view of the input string.
func (c *Cluster) Node(i int) *seq.File { return c.nodes[i] }

// TransferTime returns the modeled time of the initial string broadcast
// (zero for a single node).
func (c *Cluster) TransferTime() time.Duration { return c.transfer }
