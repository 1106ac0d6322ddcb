// What a replica serves the cluster router besides queries.
//
// The router in internal/cluster/route serves a sharded corpus from per-shard
// monolithic indexes hosted on remote replicas, and it holds no merge rule of
// its own: it fetches per-shard answers and calls Stitch.Merge (shard.go), or
// fetches bytes — junction windows for a Stitch, whole shards for lrs and
// topk, two documents for lcs — and calls SuffixOrderAnswer / LCSTwoStrings
// (analytics.go), the functions the in-process partitioned executor
// (tombstone.go, analytics_live.go) runs. The bytes come from the two
// accessors below.
package era

import (
	"fmt"

	"era/internal/alphabet"
)

// ContentSlice returns the raw content bytes [lo, hi), viewed in place: valid
// while the index is open and not to be written. The terminator is not
// addressable, so offsets are bounded by Len()-1.
func (x *Index) ContentSlice(lo, hi int) ([]byte, error) {
	contentLen := len(x.data) - 1
	if lo < 0 || hi < lo || hi > contentLen {
		return nil, fmt.Errorf("era: content slice [%d, %d) out of range [0, %d)", lo, hi, contentLen)
	}
	return x.data[lo:hi:hi], nil
}

// DocBytes returns one document's raw content by local ordinal, viewed in
// place like ContentSlice.
func (x *Index) DocBytes(ord int) ([]byte, error) {
	if ord < 0 || ord >= len(x.docEnds) {
		return nil, fmt.Errorf("era: document ordinal %d out of range [0, %d)", ord, len(x.docEnds))
	}
	start, end := 0, int(x.docEnds[ord])
	if ord > 0 {
		start = int(x.docEnds[ord-1])
	}
	return x.data[start:end:end], nil
}

// The terminator the virtual global string ends with; routers count it when
// computing total lengths from per-shard content lengths.
const TerminatorByte = alphabet.Terminator
