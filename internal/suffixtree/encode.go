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
// disk is charged for their bytes and write operations — ERa-str and the
// baselines through WriteTo, ERa-str+mem, whose sub-trees are counted and
// never materialized, through WriteSized.
const (
	magic   = 0x45524154 // "ERAT"
	version = 1

	// recordChunk is how many node records one Write carries at most, which
	// keeps the encoding buffer bounded.
	recordChunk = 4096
)

// zeroRecords is WriteSized's records: one chunk of zeroed nodes, only read.
var zeroRecords [recordChunk * NodeSize]byte

// writeHeader writes the stream header of an nNodes-node tree over a
// strLen-symbol string.
func writeHeader(w io.Writer, strLen, nNodes int) (int64, error) {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(strLen))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(nNodes))
	n, err := w.Write(hdr[:])
	return int64(n), err
}

// WriteTo serializes the tree. It satisfies io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	total, err := writeHeader(w, t.s.Len(), len(t.nodes))
	if err != nil {
		return total, err
	}
	buf := make([]byte, 0, recordChunk*NodeSize)
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

// WriteSized writes the stream of an nNodes-node tree over a strLen-symbol
// string with every node record zeroed, in exactly the Write calls WriteTo
// makes for such a tree: the header, then the records, at most recordChunk
// per call. A builder that counts a sub-tree instead of materializing it
// charges the disk the same bytes and write operations through it.
func WriteSized(w io.Writer, strLen, nNodes int) (int64, error) {
	total, err := writeHeader(w, strLen, nNodes)
	for left := nNodes; left > 0 && err == nil; left -= recordChunk {
		var n int
		n, err = w.Write(zeroRecords[:min(left, recordChunk)*NodeSize])
		total += int64(n)
	}
	return total, err
}
