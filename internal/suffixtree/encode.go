package suffixtree

import (
	"encoding/binary"
	"io"
)

// Serialization format (little endian):
//
//	magic   uint32  'ERAT'
//	version uint32  1
//	strLen  uint32  length of S the tree was built over (consistency check)
//	nNodes  uint32
//	nodes   nNodes × 6 × int32 (start, end, parent, firstChild, nextSib, suffix)
//
// The string itself is not serialized. This mirrors the paper's layout where
// the tree and the string are separate disk files. Nothing reads the stream
// back: the builders write finished sub-trees through it so the simulated
// disk is charged for their bytes.
const (
	magic   = 0x45524154 // "ERAT"
	version = 1
)

// WriteTo serializes the tree. It satisfies io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(t.s.Len()))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(t.nodes)))
	var total int64
	n, err := w.Write(hdr)
	total += int64(n)
	if err != nil {
		return total, err
	}

	// Chunked node encoding to keep allocations bounded.
	const chunk = 4096
	buf := make([]byte, 0, chunk*NodeSize)
	for i, nd := range t.nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.start))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.end))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.parent))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.firstChild))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.nextSib))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nd.suffix))
		if len(buf) == cap(buf) || i == len(t.nodes)-1 {
			n, err := w.Write(buf)
			total += int64(n)
			if err != nil {
				return total, err
			}
			buf = buf[:0]
		}
	}
	return total, nil
}
