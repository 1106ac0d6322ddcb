package era

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"era/internal/alphabet"
	"era/internal/suffixtree"
)

// Format v4 — the only index file format — is the mmap-native layout: a
// page-aligned, little-endian, offset-based image whose sections are directly
// usable as the query-time data structures. OpenIndex maps the file and wraps
// the sections in a suffixtree.FlatTree view — O(header) work, no per-node
// deserialization, no whole-tree copy — so startup cost is independent of
// index size and concurrent serving processes share one page-cache copy of
// the file.
//
// Monolithic image (kind 0):
//
//	header (v4HeaderLen bytes, fields below)
//	meta      nameLen u32 + name, alphaNameLen u32 + alphaName,
//	          nSyms u32 + symbols
//	data      the string S, terminator included           (page-aligned)
//	docEnds   nDocs × u32 exclusive document ends         (page-aligned)
//	nodes     (nNodes − nLeaves) × 32-byte internal records,
//	          then nLeaves × 8-byte leaf records          (page-aligned)
//	sym       nNodes × 1 byte first edge symbols          (page-aligned)
//	leafIdx   per-block u32 offsets into leafData         (page-aligned)
//	leafData  delta-varint leaf blocks                    (page-aligned)
//
// Header fields (little endian):
//
//	0   magic    u32 'ERAI'
//	4   version  u32 = 4
//	8   kind     u32: 0 monolithic, 1 sharded
//	12  flags    u32 (bit 0, required on monolithic and sharded images:
//	             the header carries the checksum block below; bit 1,
//	             required on monolithic images: the tree sections are the
//	             compact layout of suffixtree.FlatTree — narrow leaf
//	             records, no dense child tables; bit 2, the prefix-range
//	             layout: on a monolithic image, the tree holds the suffixes
//	             of one range [lo, hi) of the suffix order and the meta ends
//	             with its two keys; required on sharded images, whose
//	             payloads are such ranges, contiguous)
//	16  imageLen u64  total image bytes (truncation check)
//	24  metaOff  u64
//	32  metaLen  u64
//	40.. kind-specific fields. Monolithic: dataOff, dataLen, docEndsOff,
//	    nDocs, nodesOff, nNodes, symOff, leafIdxOff, leafIdxLen,
//	    leafDataOff, leafDataLen, nLeaves (u64 each, through byte 136; the
//	    rest of the fixed header is zero). Sharded: shard table offset,
//	    shard count.
//
// The checksum block (flags bit 0) grows the header to v4HeaderLenCk bytes:
//
//	152  8 × u32 CRC32C, one per section window in file order; each window
//	     runs from its section's start to the next section's start (trailing
//	     page padding included), the last to imageLen. Monolithic images
//	     have seven sections; the eighth slot is zero. Sharded images use
//	     slot 0 for meta and slot 1 for the shard table window; payloads
//	     carry their own checksums.
//	184  u32 CRC32C of header bytes [0, 184)
//	188  4 zero bytes (verified; reserved)
//
// The header checksum is verified at open; section windows are verified
// lazily — once, before the first query touches the image — so opening a
// mapped file stays O(header).
//
// The version field has stayed 4 since the tree sections were 32-byte records
// for every node and 1 KiB dense tables. Such an image lacks flags bit 1
// (the oldest lack bit 0 too) and is refused at open (errOldLayout, an
// ErrMustRebuild) — its sections would mis-read as the compact layout, and no
// reader for them is kept.
//
// A range image (flags bit 2) has one field more than the meta above, and
// one invariant less: nLeaves is the number of suffixes in the range, not
// dataLen. Its meta continues
//
//	loLen u32 + lo, hiLen u32 + hi
//
// (an empty lo is the start of the suffix order, an empty hi its end; not
// both: that range is the whole tree, which is written without the flag).
// The data and docEnds sections hold all of S and every document, as in any
// monolithic image.
//
// Sharded image (kind 1): header + meta (name only) + a table of
// (payloadOff, payloadLen) u64 pairs + the payloads, each payload a complete
// page-aligned monolithic v4 image — a range image, the ranges contiguous in
// table order from the start of the suffix order to its end (or one whole
// image). One mapping serves every shard. Sharded images from before the
// prefix-range layout cut at document boundaries and lack flags bit 2; they
// are refused (errDocAligned, an ErrMustRebuild), and no reader for them is
// kept.
//
// Everything read from an index file is untrusted: the section table is
// bounds- and alignment-checked at open (misaligned or truncated sections
// are errors), and the FlatTree clamps every id and offset at access time,
// so a corrupt file degrades to wrong answers — never a panic, a runaway
// walk, or a fault past the mapping.
const (
	flatVersion = 4
	// v4Page is the section alignment. 4 KiB matches the page size of every
	// deployment target; sections start on page boundaries so the kernel
	// can fault and evict them independently.
	v4Page = 4096
	// v4HeaderLen is the fixed monolithic header size (the sharded header
	// is shorter but padded to the same length, so meta always follows at
	// one offset).
	v4HeaderLen = 152
	// v4HeaderLenCk is the header size with the checksum block appended
	// (flags bit 0): every monolithic and sharded image.
	v4HeaderLenCk = 192
	// v4FlagChecksums marks a header that carries the checksum block (a
	// trailing footer, for live manifests).
	v4FlagChecksums = 1 << 0
	// v4FlagCompact marks a monolithic image whose tree sections are the
	// compact flat layout; every image this package writes carries it and the
	// reader requires it.
	v4FlagCompact = 1 << 1
	// v4FlagRange marks the prefix-range layout: a monolithic image whose tree
	// holds one range of the suffix order, or a sharded image made of them.
	v4FlagRange = 1 << 2
	// v4CRCTableOff / v4HeaderCRCOff locate the checksum block fields.
	v4CRCTableOff  = 152
	v4HeaderCRCOff = 184
	// maxV4Shards bounds a build's shard count, and the shard and tier tables
	// on read.
	maxV4Shards = 1 << 12
)

// errOldLayout refuses a v4 image written before the compact node layout.
var errOldLayout = fmt.Errorf("%w: the v4 image predates the compact node layout (8-byte leaf records)", ErrMustRebuild)

// errDocAligned refuses a sharded image written before shards were prefix
// ranges of the suffix order.
var errDocAligned = fmt.Errorf("%w: the sharded image is cut at document boundaries, which predates prefix-range shards", ErrMustRebuild)

// v4align rounds n up to the page boundary.
func v4align(n int64) int64 {
	return (n + v4Page - 1) &^ (v4Page - 1)
}

// v4sections is the resolved section table of one monolithic image.
type v4sections struct {
	meta              []byte
	data              []byte
	docEnds           []byte
	nodes, sym        []byte
	leafIdx, leafData []byte
	nDocs, nLeaves    int64
	nNodes            int64
	imageLen          int64
	ck                *checkState
	ranged            bool   // flags bit 2: the tree holds one range of the suffix order
	hdrCRC            uint32 // the header's own checksum (Index.Fingerprint)
}

// crcPadded is the CRC32C of b followed by zeros up to total bytes — the
// writer-side hash of one page-padded section window.
func crcPadded(b []byte, total int64) uint32 {
	c := crc32.Update(0, castagnoli, b)
	for n := total - int64(len(b)); n > 0; {
		k := n
		if k > v4Page {
			k = v4Page
		}
		c = crc32.Update(c, castagnoli, v4zeros[:k])
		n -= k
	}
	return c
}

// v4HeaderChecks verifies a checksummed header's own CRC (and the reserved
// zero pad) and returns the stored section CRC table.
func v4HeaderChecks(buf []byte) ([8]uint32, error) {
	var crcs [8]uint32
	if len(buf) < v4HeaderLenCk {
		return crcs, fmt.Errorf("era: corrupt index: checksummed header truncated at %d bytes", len(buf))
	}
	want := binary.LittleEndian.Uint32(buf[v4HeaderCRCOff:])
	if got := crc32.Checksum(buf[:v4HeaderCRCOff], castagnoli); got != want {
		return crcs, fmt.Errorf("era: corrupt index: header checksum mismatch (stored %#08x, computed %#08x)", want, got)
	}
	if binary.LittleEndian.Uint32(buf[v4HeaderCRCOff+4:]) != 0 {
		return crcs, fmt.Errorf("era: corrupt index: nonzero reserved header bytes")
	}
	for i := range crcs {
		crcs[i] = binary.LittleEndian.Uint32(buf[v4CRCTableOff+4*i:])
	}
	return crcs, nil
}

// sliceV4 bounds-checks one section against the image and its required
// alignment, returning the window.
func sliceV4(buf []byte, off, length, align int64, name string) ([]byte, error) {
	if off < 0 || length < 0 || off > int64(len(buf)) || length > int64(len(buf))-off {
		return nil, fmt.Errorf("era: corrupt index: %s section [%d, %d+%d) outside the %d-byte image", name, off, off, length, len(buf))
	}
	if align > 1 && off%align != 0 {
		return nil, fmt.Errorf("era: corrupt index: %s section at offset %d is not %d-byte aligned", name, off, align)
	}
	return buf[off : off+length : off+length], nil
}

// parseV4Mono resolves a monolithic v4 image into an Index whose tree is a
// FlatTree over the image's own bytes. mp, when non-nil, is the mapping the
// Index takes ownership of.
func parseV4Mono(buf []byte, mp *mapping) (*Index, error) {
	s, err := parseV4Sections(buf)
	if err != nil {
		return nil, err
	}
	name, alphaName, syms, keys, err := parseV4Meta(s.meta, true, s.ranged)
	if err != nil {
		return nil, err
	}
	alpha, err := alphabet.New(alphaName, syms)
	if err != nil {
		return nil, err
	}
	docEnds, err := docEndsView(s.docEnds, int(s.nDocs), len(s.data))
	if err != nil {
		return nil, err
	}
	tree, err := suffixtree.NewFlatTree(s.data, s.nodes, s.sym, nil, s.leafIdx, s.leafData, int32(s.nLeaves))
	if err != nil {
		return nil, fmt.Errorf("era: corrupt index: %w", err)
	}
	return &Index{
		name:    name,
		tree:    tree,
		data:    s.data,
		alpha:   alpha,
		docEnds: docEnds,
		lo:      keys[0],
		hi:      keys[1],
		mp:      mp,
		ck:      s.ck,
		hdrCRC:  s.hdrCRC,
	}, nil
}

// parseV4Sections validates the monolithic header's section table —
// O(header): bounds, alignment, and the cheap scalar invariants only.
func parseV4Sections(buf []byte) (*v4sections, error) {
	if len(buf) < v4HeaderLen {
		return nil, fmt.Errorf("era: corrupt index: %d bytes is shorter than the v4 header", len(buf))
	}
	u64 := func(off int) int64 { return int64(binary.LittleEndian.Uint64(buf[off:])) }
	if m := binary.LittleEndian.Uint32(buf[0:]); m != indexMagic {
		return nil, fmt.Errorf("era: bad index magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != flatVersion {
		return nil, fmt.Errorf("era: not a v4 index (version %d)", v)
	}
	if k := binary.LittleEndian.Uint32(buf[8:]); k != 0 {
		return nil, fmt.Errorf("era: corrupt index: kind %d where a monolithic image was expected", k)
	}
	s := &v4sections{imageLen: u64(16)}
	if s.imageLen < v4HeaderLen || s.imageLen > int64(len(buf)) {
		return nil, fmt.Errorf("era: corrupt index: image length %d outside the %d available bytes (truncated file?)", s.imageLen, len(buf))
	}
	img := buf[:s.imageLen]
	// Every compact-layout image carries the checksum block, so an image
	// without it is old whatever else it says; with it, the header is vouched
	// for before its layout flag is believed.
	flags := binary.LittleEndian.Uint32(buf[12:])
	if flags&v4FlagChecksums == 0 {
		return nil, errOldLayout
	}
	crcs, err := v4HeaderChecks(img)
	if err != nil {
		return nil, err
	}
	if flags&v4FlagCompact == 0 {
		return nil, errOldLayout
	}
	s.ranged = flags&v4FlagRange != 0
	s.hdrCRC = binary.LittleEndian.Uint32(img[v4HeaderCRCOff:])
	if s.meta, err = sliceV4(img, u64(24), u64(32), 1, "meta"); err != nil {
		return nil, err
	}
	dataLen := u64(48)
	if s.data, err = sliceV4(img, u64(40), dataLen, v4Page, "data"); err != nil {
		return nil, err
	}
	if dataLen < 1 || s.data[dataLen-1] != alphabet.Terminator {
		return nil, fmt.Errorf("era: corrupt index: string does not end with the terminator")
	}
	s.nDocs = u64(64)
	if s.nDocs < 1 || s.nDocs > dataLen {
		return nil, fmt.Errorf("era: corrupt index: %d documents over a %d-byte string", s.nDocs, dataLen)
	}
	if s.docEnds, err = sliceV4(img, u64(56), s.nDocs*4, v4Page, "docEnds"); err != nil {
		return nil, err
	}
	s.nNodes = u64(80)
	if s.nNodes < 1 || s.nNodes > int64(1)<<31-1 {
		return nil, fmt.Errorf("era: corrupt index: node count %d", s.nNodes)
	}
	s.nLeaves = u64(128)
	// Every suffix of S is a leaf — every suffix of the range, in a range
	// image — so the leaf count, which decides where the internal records
	// end, is not a free field.
	if (s.nLeaves != dataLen && !s.ranged) || s.nLeaves < 1 || s.nLeaves > dataLen || s.nLeaves >= s.nNodes {
		return nil, fmt.Errorf("era: corrupt index: %d leaves and %d nodes over a %d-byte string", s.nLeaves, s.nNodes, dataLen)
	}
	if s.nodes, err = sliceV4(img, u64(72), suffixtree.FlatNodesLen(s.nNodes-s.nLeaves, s.nLeaves), v4Page, "nodes"); err != nil {
		return nil, err
	}
	if s.sym, err = sliceV4(img, u64(88), s.nNodes, v4Page, "sym"); err != nil {
		return nil, err
	}
	if s.leafIdx, err = sliceV4(img, u64(96), u64(104), v4Page, "leafIdx"); err != nil {
		return nil, err
	}
	if s.leafData, err = sliceV4(img, u64(112), u64(120), v4Page, "leafData"); err != nil {
		return nil, err
	}
	names := [7]string{"meta", "data", "docEnds", "nodes", "sym", "leafIdx", "leafData"}
	bounds := [8]int64{u64(24), u64(40), u64(56), u64(72), u64(88), u64(96), u64(112), s.imageLen}
	s.ck = &checkState{}
	for i, name := range names {
		start, end := bounds[i], bounds[i+1]
		if start < 0 || end < start || end > s.imageLen {
			return nil, fmt.Errorf("era: corrupt index: %s checksum window [%d, %d) outside the %d-byte image", name, start, end, s.imageLen)
		}
		s.ck.secs = append(s.ck.secs, checkSection{name: name, data: img[start:end], want: crcs[i]})
	}
	return s, nil
}

// parseV4Meta unpacks the meta section: name, and for monolithic images the
// alphabet name and symbols, then — for a range image — the range's keys
// (viewed in place; empty for the whole tree).
func parseV4Meta(meta []byte, mono, ranged bool) (name, alphaName string, syms []byte, keys [2][]byte, err error) {
	next := func(limit int64) ([]byte, error) {
		if len(meta) < 4 {
			return nil, fmt.Errorf("era: corrupt index: truncated meta section")
		}
		n := binary.LittleEndian.Uint32(meta)
		meta = meta[4:]
		if int64(n) > limit || int64(n) > int64(len(meta)) {
			return nil, fmt.Errorf("era: corrupt index: meta field of %d bytes", n)
		}
		f := meta[:n:n]
		meta = meta[n:]
		return f, nil
	}
	fail := func(err error) (string, string, []byte, [2][]byte, error) { return "", "", nil, [2][]byte{}, err }
	b, err := next(maxNameLen)
	if err != nil {
		return fail(err)
	}
	name = string(b)
	if !mono {
		return name, "", nil, keys, nil
	}
	if b, err = next(maxNameLen); err != nil {
		return fail(err)
	}
	alphaName = string(b)
	if syms, err = next(256); err != nil {
		return fail(err)
	}
	if ranged {
		for i := range keys {
			if keys[i], err = next(int64(len(meta))); err != nil {
				return fail(err)
			}
		}
		if len(keys[0]) == 0 && len(keys[1]) == 0 {
			return fail(fmt.Errorf("era: corrupt index: a range image whose range is the whole suffix order"))
		}
	}
	return name, alphaName, append([]byte(nil), syms...), keys, nil
}

// hostLittleEndian reports whether int32 slices can view little-endian bytes
// directly.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// docEndsView interprets the docEnds section as []int32 — zero-copy on
// little-endian hosts with an aligned base (the mmap case), copied
// otherwise — and validates the invariants document slicing (docBytes) and
// DocOccurrences (docHits) assume: monotone non-decreasing
// (empty documents are legal), inside the content (the final byte is the
// terminator, not part of any document), covering it exactly.
func docEndsView(sec []byte, nDocs, dataLen int) ([]int32, error) {
	var ends []int32
	if hostLittleEndian && nDocs > 0 && uintptr(unsafe.Pointer(&sec[0]))%4 == 0 {
		ends = unsafe.Slice((*int32)(unsafe.Pointer(&sec[0])), nDocs)
	} else {
		ends = make([]int32, nDocs)
		for i := range ends {
			ends[i] = int32(binary.LittleEndian.Uint32(sec[i*4:]))
		}
	}
	prev := int32(0)
	for i, e := range ends {
		if e < prev || int(e) > dataLen-1 {
			return nil, fmt.Errorf("era: corrupt index: doc end %d of document %d outside [%d, %d]", e, i, prev, dataLen-1)
		}
		prev = e
	}
	if int(ends[nDocs-1]) != dataLen-1 {
		return nil, fmt.Errorf("era: corrupt index: documents cover %d bytes of a %d-byte string", ends[nDocs-1], dataLen-1)
	}
	return ends, nil
}

// parseV4 resolves any v4 image — monolithic or sharded — handing ownership
// of mp (which may be nil for in-memory buffers) to the returned index.
func parseV4(buf []byte, mp *mapping) (Queryable, error) {
	if len(buf) < 16 {
		return nil, fmt.Errorf("era: corrupt index: %d bytes is shorter than the v4 header", len(buf))
	}
	switch k := binary.LittleEndian.Uint32(buf[8:]); k {
	case 1:
		return parseV4Sharded(buf, mp)
	case 2:
		// A live manifest only names tier files; it cannot be served from
		// its own bytes. OpenIndex on the manifest path routes to OpenLive.
		return nil, fmt.Errorf("era: live index manifest; open it with OpenIndex on the manifest path or era.OpenLive")
	}
	return parseV4Mono(buf, mp)
}

// parseV4Sharded resolves a sharded v4 image: every payload is parsed as a
// monolithic image over a window of the same buffer, so the shards of one
// file share one mapping.
func parseV4Sharded(buf []byte, mp *mapping) (*ShardedIndex, error) {
	if len(buf) < v4HeaderLen {
		return nil, fmt.Errorf("era: corrupt index: %d bytes is shorter than the v4 header", len(buf))
	}
	u64 := func(off int) int64 { return int64(binary.LittleEndian.Uint64(buf[off:])) }
	imageLen := u64(16)
	if imageLen < v4HeaderLen || imageLen > int64(len(buf)) {
		return nil, fmt.Errorf("era: corrupt index: image length %d outside the %d available bytes (truncated file?)", imageLen, len(buf))
	}
	img := buf[:imageLen]
	if binary.LittleEndian.Uint32(buf[12:])&v4FlagChecksums == 0 {
		return nil, errOldLayout // from before checksums: so are its payloads
	}
	// The outer windows are header-sized; verify them eagerly. Payloads are
	// monolithic images whose own checksums verify lazily.
	crcs, err := v4HeaderChecks(img)
	if err != nil {
		return nil, err
	}
	meta, err := sliceV4(img, u64(24), u64(32), 1, "meta")
	if err != nil {
		return nil, err
	}
	name, _, _, _, err := parseV4Meta(meta, false, false)
	if err != nil {
		return nil, err
	}
	nShards := u64(48)
	if nShards < 1 || nShards > maxV4Shards {
		return nil, fmt.Errorf("era: corrupt index: shard count %d outside [1, %d]", nShards, maxV4Shards)
	}
	table, err := sliceV4(img, u64(40), nShards*16, 8, "shard table")
	if err != nil {
		return nil, err
	}
	check := func(name string, start, end int64, want uint32) error {
		if start < 0 || end < start || end > imageLen {
			return fmt.Errorf("era: corrupt index: %s checksum window [%d, %d) outside the %d-byte image", name, start, end, imageLen)
		}
		if got := crc32.Checksum(img[start:end], castagnoli); got != want {
			return fmt.Errorf("era: corrupt index: %s section checksum mismatch (stored %#08x, computed %#08x)", name, want, got)
		}
		return nil
	}
	if err := check("meta", u64(24), u64(40), crcs[0]); err != nil {
		return nil, err
	}
	if err := check("shard table", u64(40), v4align(u64(40)+nShards*16), crcs[1]); err != nil {
		return nil, err
	}
	shards := make([]*Index, nShards)
	for i := range shards {
		off := int64(binary.LittleEndian.Uint64(table[i*16:]))
		plen := int64(binary.LittleEndian.Uint64(table[i*16+8:]))
		payload, err := sliceV4(img, off, plen, v4Page, "shard payload")
		if err != nil {
			return nil, fmt.Errorf("era: shard %d of %d: %w", i, nShards, err)
		}
		idx, err := parseV4Mono(payload, nil)
		if err != nil {
			return nil, fmt.Errorf("era: shard %d of %d: %w", i, nShards, err)
		}
		shards[i] = idx
	}
	// Checked after the payloads, so that an image older still says why.
	if binary.LittleEndian.Uint32(buf[12:])&v4FlagRange == 0 {
		return nil, errDocAligned
	}
	sx, err := newShardedIndex(name, shards)
	if err != nil {
		return nil, fmt.Errorf("era: corrupt index: %w", err)
	}
	sx.mp = mp
	return sx, nil
}

// padWriter tracks the write offset and emits zero padding up to aligned
// section starts.
type padWriter struct {
	w   io.Writer
	off int64
	err error
}

var v4zeros [v4Page]byte

func (p *padWriter) write(b []byte) {
	if p.err != nil {
		return
	}
	n, err := p.w.Write(b)
	p.off += int64(n)
	p.err = err
}

// padTo writes zeros until the offset reaches target.
func (p *padWriter) padTo(target int64) {
	for p.err == nil && p.off < target {
		n := target - p.off
		if n > v4Page {
			n = v4Page
		}
		p.write(v4zeros[:n])
	}
}

// v4Meta packs the monolithic meta section: name, alphabet, and for a range
// image the range's two keys.
func (x *Index) v4Meta() []byte {
	syms := x.alpha.Symbols()
	meta := make([]byte, 0, 20+len(x.name)+len(x.alpha.Name())+len(syms)+len(x.lo)+len(x.hi))
	for _, f := range [][]byte{[]byte(x.name), []byte(x.alpha.Name()), syms} {
		meta = binary.LittleEndian.AppendUint32(meta, uint32(len(f)))
		meta = append(meta, f...)
	}
	if x.partial() {
		for _, key := range [][]byte{x.lo, x.hi} {
			meta = binary.LittleEndian.AppendUint32(meta, uint32(len(key)))
			meta = append(meta, key...)
		}
	}
	return meta
}

// v4MonoLayout computes the section offsets of one monolithic image.
type v4MonoLayout struct {
	metaLen                               int64
	dataOff, docEndsOff, nodesOff, symOff int64
	leafIdxOff, leafDataOff               int64
	imageLen                              int64
}

func planV4Mono(metaLen, dataLen, nDocs int64, f suffixtree.Flat) v4MonoLayout {
	var l v4MonoLayout
	l.metaLen = metaLen
	l.dataOff = v4align(v4HeaderLenCk + metaLen)
	l.docEndsOff = v4align(l.dataOff + dataLen)
	l.nodesOff = v4align(l.docEndsOff + nDocs*4)
	l.symOff = v4align(l.nodesOff + int64(len(f.Nodes)))
	l.leafIdxOff = v4align(l.symOff + int64(len(f.Sym)))
	l.leafDataOff = v4align(l.leafIdxOff + int64(len(f.LeafIdx)))
	l.imageLen = l.leafDataOff + int64(len(f.LeafData))
	return l
}

// v4Image is one monolithic image laid out: its header, checksums filled
// in, and its seven sections in file order, secs[i] starting at offs[i] and
// padded up to offs[i+1] (offs[7] is the image length).
type v4Image struct {
	hdr  []byte
	secs [7][]byte
	offs [8]int64
}

// v4Image lays out the index's image: what WriteTo writes, and what
// Fingerprint reads the header checksum of.
func (x *Index) v4Image() v4Image {
	meta := x.v4Meta()
	f := x.tree.Sections()
	l := planV4Mono(int64(len(meta)), int64(len(x.data)), int64(len(x.docEnds)), f)
	de := make([]byte, 4*len(x.docEnds))
	for i, e := range x.docEnds {
		binary.LittleEndian.PutUint32(de[i*4:], uint32(e))
	}
	img := v4Image{
		hdr:  make([]byte, v4HeaderLenCk),
		secs: [7][]byte{meta, x.data, de, f.Nodes, f.Sym, f.LeafIdx, f.LeafData},
		offs: [8]int64{v4HeaderLenCk, l.dataOff, l.docEndsOff, l.nodesOff, l.symOff, l.leafIdxOff, l.leafDataOff, l.imageLen},
	}
	flags := uint32(v4FlagChecksums | v4FlagCompact)
	if x.partial() {
		flags |= v4FlagRange
	}
	hdr := img.hdr
	binary.LittleEndian.PutUint32(hdr[0:], indexMagic)
	binary.LittleEndian.PutUint32(hdr[4:], flatVersion)
	binary.LittleEndian.PutUint32(hdr[8:], 0) // monolithic
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(l.imageLen))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(v4HeaderLenCk))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(meta)))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(l.dataOff))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(len(x.data)))
	binary.LittleEndian.PutUint64(hdr[56:], uint64(l.docEndsOff))
	binary.LittleEndian.PutUint64(hdr[64:], uint64(len(x.docEnds)))
	binary.LittleEndian.PutUint64(hdr[72:], uint64(l.nodesOff))
	binary.LittleEndian.PutUint64(hdr[80:], uint64(f.NNodes))
	binary.LittleEndian.PutUint64(hdr[88:], uint64(l.symOff))
	binary.LittleEndian.PutUint64(hdr[96:], uint64(l.leafIdxOff))
	binary.LittleEndian.PutUint64(hdr[104:], uint64(len(f.LeafIdx)))
	binary.LittleEndian.PutUint64(hdr[112:], uint64(l.leafDataOff))
	binary.LittleEndian.PutUint64(hdr[120:], uint64(len(f.LeafData)))
	binary.LittleEndian.PutUint64(hdr[128:], uint64(f.NLeaves))
	// Section window checksums, each covering the section and its trailing
	// page padding so every image byte past the header is accounted for.
	for i, sec := range img.secs {
		binary.LittleEndian.PutUint32(hdr[v4CRCTableOff+4*i:], crcPadded(sec, img.offs[i+1]-img.offs[i]))
	}
	binary.LittleEndian.PutUint32(hdr[v4HeaderCRCOff:], crc32.Checksum(hdr[:v4HeaderCRCOff], castagnoli))
	return img
}

// WriteTo serializes the index (name, string, document map and the tree
// sections it holds) as one monolithic image: header, meta, then the page-
// aligned sections. The layout is computed up front, so any io.Writer works
// (no seeking) and the byte stream is deterministic: an opened image writes
// back byte for byte. It satisfies io.WriterTo; reopen with OpenIndex for the
// zero-copy path, or ReadIndex from a stream.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	if err := x.CheckErr(); err != nil {
		return 0, err // never re-serialize a mapped image that fails its checksums
	}
	if len(x.name) > maxNameLen || len(x.alpha.Name()) > maxNameLen {
		return 0, fmt.Errorf("era: index name longer than %d bytes", maxNameLen)
	}
	img := x.v4Image()
	p := &padWriter{w: w}
	p.write(img.hdr)
	for i, sec := range img.secs {
		p.padTo(img.offs[i])
		p.write(sec)
	}
	return p.off, p.err
}

// Fingerprint identifies the index's image: the CRC32C its v4 header ends
// with, which covers every section's checksum, so two images — two
// replicas' copies of one shard — fingerprint alike exactly when their bytes
// are alike, barring a CRC collision. An opened image reports the checksum it
// stores; a built one lays itself out to compute it, O(image).
func (x *Index) Fingerprint() uint32 {
	if x.ck != nil {
		return x.hdrCRC
	}
	return binary.LittleEndian.Uint32(x.v4Image().hdr[v4HeaderCRCOff:])
}

// WriteTo serializes the sharded index as one sharded image: shard payloads
// are complete page-aligned monolithic images, so OpenIndex serves every shard
// from a single mapping. It satisfies io.WriterTo.
func (sx *ShardedIndex) WriteTo(w io.Writer) (int64, error) {
	if err := sx.CheckErr(); err != nil {
		return 0, err
	}
	if len(sx.name) > maxNameLen {
		return 0, fmt.Errorf("era: index name longer than %d bytes", maxNameLen)
	}
	if len(sx.shards) > maxV4Shards {
		return 0, fmt.Errorf("era: %d shards exceed the format limit of %d", len(sx.shards), maxV4Shards)
	}
	// Payload sizes come from each shard's deterministic layout plan over
	// the sections it holds, so the whole image streams without seeking.
	meta := make([]byte, 0, 4+len(sx.name))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(sx.name)))
	meta = append(meta, sx.name...)
	tableOff := (int64(v4HeaderLenCk) + int64(len(meta)) + 7) &^ 7
	table := make([]int64, 2*len(sx.shards))
	firstPayloadOff := v4align(tableOff + int64(16*len(sx.shards)))
	off := firstPayloadOff
	for i, sh := range sx.shards {
		metaLen := int64(len(sh.v4Meta()))
		l := planV4Mono(metaLen, int64(len(sh.data)), int64(len(sh.docEnds)), sh.tree.Sections())
		table[2*i] = off
		table[2*i+1] = l.imageLen
		off = v4align(off + l.imageLen)
	}
	imageLen := table[2*len(sx.shards)-2] + table[2*len(sx.shards)-1]
	tb := make([]byte, 16*len(sx.shards))
	for i := 0; i < len(sx.shards); i++ {
		binary.LittleEndian.PutUint64(tb[i*16:], uint64(table[2*i]))
		binary.LittleEndian.PutUint64(tb[i*16+8:], uint64(table[2*i+1]))
	}

	hdr := make([]byte, v4HeaderLenCk)
	binary.LittleEndian.PutUint32(hdr[0:], indexMagic)
	binary.LittleEndian.PutUint32(hdr[4:], flatVersion)
	binary.LittleEndian.PutUint32(hdr[8:], 1) // sharded
	binary.LittleEndian.PutUint32(hdr[12:], v4FlagChecksums|v4FlagRange)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(imageLen))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(v4HeaderLenCk))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(meta)))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(tableOff))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(len(sx.shards)))
	// Slot 0 covers the meta window, slot 1 the shard table window; the
	// payloads are complete monolithic images carrying their own checksums.
	binary.LittleEndian.PutUint32(hdr[v4CRCTableOff:], crcPadded(meta, tableOff-v4HeaderLenCk))
	binary.LittleEndian.PutUint32(hdr[v4CRCTableOff+4:], crcPadded(tb, firstPayloadOff-tableOff))
	binary.LittleEndian.PutUint32(hdr[v4HeaderCRCOff:], crc32.Checksum(hdr[:v4HeaderCRCOff], castagnoli))

	p := &padWriter{w: w}
	p.write(hdr)
	p.write(meta)
	p.padTo(tableOff)
	p.write(tb)
	for i, sh := range sx.shards {
		p.padTo(table[2*i])
		if p.err != nil {
			return p.off, p.err
		}
		n, err := sh.WriteTo(p.w)
		p.off += n
		if err != nil {
			return p.off, fmt.Errorf("era: writing shard %d payload: %w", i, err)
		}
		if n != table[2*i+1] {
			return p.off, fmt.Errorf("era: shard %d payload wrote %d bytes, planned %d", i, n, table[2*i+1])
		}
	}
	return p.off, p.err
}

// Live manifest image (kind 2) — written by LiveIndex in directory mode.
// The manifest is a catalog, not a servable index: it names the sealed tier
// files (each an ordinary kind-0 image in the same directory) and records
// each tier's stable document ids and tombstones. The memtable is volatile
// by contract and never appears here.
//
//	header (v4HeaderLen bytes)
//	  0  magic, 4 version, 8 kind=2
//	  16 imageLen, 24 metaOff (=v4HeaderLen), 32 metaLen
//	  40 nextID, 48 tierSeq, 56 nTiers, 64 tierTableOff
//	meta: nameLen u32 + name
//	tier records (sequential at tierTableOff, one per tier):
//	  fileLen u32 + file (base name, no path separators)
//	  nDocs u64, nDead u64
//	  nDocs × u64 document ids (strictly ascending across the whole table)
//	  nDead × u32 tombstoned local indices (strictly ascending, < nDocs)

// liveManifest is the parsed kind-2 image.
type liveManifest struct {
	name    string
	nextID  uint64
	tierSeq uint64
	tiers   []liveManifestTier
}

type liveManifestTier struct {
	file string
	ids  []uint64
	dead []uint32
}

// validTierFileName rejects anything but a plain base name, so a corrupt or
// hostile manifest cannot direct tier opens outside its own directory.
func validTierFileName(s string) bool {
	if s == "" || s == "." || s == ".." || len(s) > maxNameLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '/' || s[i] == '\\' || s[i] == 0 {
			return false
		}
	}
	return true
}

func encodeLiveManifest(m *liveManifest) ([]byte, error) {
	if len(m.name) > maxNameLen {
		return nil, fmt.Errorf("era: index name longer than %d bytes", maxNameLen)
	}
	if len(m.tiers) > maxV4Shards {
		return nil, fmt.Errorf("era: %d live tiers exceeds the %d limit", len(m.tiers), maxV4Shards)
	}
	buf := make([]byte, v4HeaderLen, v4HeaderLen+4+len(m.name))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.name)))
	buf = append(buf, m.name...)
	tableOff := uint64(len(buf))
	for _, t := range m.tiers {
		if !validTierFileName(t.file) {
			return nil, fmt.Errorf("era: live tier file name %q is not a plain base name", t.file)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.file)))
		buf = append(buf, t.file...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(t.ids)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(t.dead)))
		for _, id := range t.ids {
			buf = binary.LittleEndian.AppendUint64(buf, id)
		}
		for _, d := range t.dead {
			buf = binary.LittleEndian.AppendUint32(buf, d)
		}
	}
	binary.LittleEndian.PutUint32(buf[0:], indexMagic)
	binary.LittleEndian.PutUint32(buf[4:], flatVersion)
	binary.LittleEndian.PutUint32(buf[8:], 2)
	binary.LittleEndian.PutUint32(buf[12:], v4FlagChecksums)
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(buf)))
	binary.LittleEndian.PutUint64(buf[24:], uint64(v4HeaderLen))
	binary.LittleEndian.PutUint64(buf[32:], uint64(4+len(m.name)))
	binary.LittleEndian.PutUint64(buf[40:], m.nextID)
	binary.LittleEndian.PutUint64(buf[48:], m.tierSeq)
	binary.LittleEndian.PutUint64(buf[56:], uint64(len(m.tiers)))
	binary.LittleEndian.PutUint64(buf[64:], tableOff)
	// The manifest is small and read whole, so its checksum is a trailing
	// footer over the entire image (flags bit 0 announces it); imageLen
	// excludes the footer, keeping older parsers' bounds math valid.
	sum := crc32.Checksum(buf, castagnoli)
	buf = binary.LittleEndian.AppendUint32(buf, indexFooterMagic)
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	return buf, nil
}

func parseLiveManifest(buf []byte) (*liveManifest, error) {
	if len(buf) < v4HeaderLen {
		return nil, fmt.Errorf("era: corrupt live manifest: %d bytes is shorter than the v4 header", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != indexMagic ||
		binary.LittleEndian.Uint32(buf[4:]) != flatVersion ||
		binary.LittleEndian.Uint32(buf[8:]) != 2 {
		return nil, fmt.Errorf("era: not a live manifest")
	}
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(buf[off:]) }
	imageLen := u64(16)
	if imageLen < v4HeaderLen || imageLen > uint64(len(buf)) {
		return nil, fmt.Errorf("era: corrupt live manifest: image length %d outside the %d available bytes (truncated file?)", imageLen, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[12:])&v4FlagChecksums != 0 {
		if uint64(len(buf)) < imageLen+8 {
			return nil, fmt.Errorf("era: corrupt live manifest: checksum footer truncated")
		}
		foot := buf[imageLen:]
		if binary.LittleEndian.Uint32(foot) != indexFooterMagic {
			return nil, fmt.Errorf("era: corrupt live manifest: bad checksum footer magic %#x", binary.LittleEndian.Uint32(foot))
		}
		want := binary.LittleEndian.Uint32(foot[4:])
		if got := crc32.Checksum(buf[:imageLen], castagnoli); got != want {
			return nil, fmt.Errorf("era: corrupt live manifest: checksum mismatch (stored %#08x, computed %#08x)", want, got)
		}
	} else if uint64(len(buf)) != imageLen {
		// A footer-less manifest is exactly imageLen bytes; trailing bytes
		// with the checksum flag clear mean the flags field was damaged.
		return nil, fmt.Errorf("era: corrupt live manifest: header flags claim no checksum but a footer is present")
	}
	buf = buf[:imageLen]
	metaOff, metaLen := u64(24), u64(32)
	meta, err := sliceV4(buf, int64(metaOff), int64(metaLen), 1, "meta")
	if err != nil {
		return nil, err
	}
	if len(meta) < 4 {
		return nil, fmt.Errorf("era: corrupt live manifest: meta shorter than its name length field")
	}
	nameLen := binary.LittleEndian.Uint32(meta)
	if uint64(nameLen) > maxNameLen || uint64(nameLen) > uint64(len(meta)-4) {
		return nil, fmt.Errorf("era: corrupt live manifest: name length %d", nameLen)
	}
	m := &liveManifest{
		name:    string(meta[4 : 4+nameLen]),
		nextID:  u64(40),
		tierSeq: u64(48),
	}
	nTiers := u64(56)
	if nTiers > maxV4Shards {
		return nil, fmt.Errorf("era: corrupt live manifest: tier count %d exceeds the %d limit", nTiers, maxV4Shards)
	}
	off := u64(64)
	if off < v4HeaderLen || off > uint64(len(buf)) {
		return nil, fmt.Errorf("era: corrupt live manifest: tier table offset %d outside the image", off)
	}
	rest := buf[off:]
	need := func(n uint64) error {
		if n > uint64(len(rest)) {
			return fmt.Errorf("era: corrupt live manifest: tier table truncated")
		}
		return nil
	}
	var prevID uint64
	var haveID bool
	for ti := uint64(0); ti < nTiers; ti++ {
		if err := need(4); err != nil {
			return nil, err
		}
		fileLen := uint64(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if fileLen > maxNameLen {
			return nil, fmt.Errorf("era: corrupt live manifest: tier file name length %d", fileLen)
		}
		if err := need(fileLen + 16); err != nil {
			return nil, err
		}
		file := string(rest[:fileLen])
		rest = rest[fileLen:]
		if !validTierFileName(file) {
			return nil, fmt.Errorf("era: corrupt live manifest: tier file name %q is not a plain base name", file)
		}
		nDocs := binary.LittleEndian.Uint64(rest)
		nDead := binary.LittleEndian.Uint64(rest[8:])
		rest = rest[16:]
		if nDocs > 1<<31 || nDead > nDocs {
			return nil, fmt.Errorf("era: corrupt live manifest: tier %q has %d documents, %d tombstones", file, nDocs, nDead)
		}
		if err := need(8*nDocs + 4*nDead); err != nil {
			return nil, err
		}
		t := liveManifestTier{file: file, ids: make([]uint64, nDocs)}
		for i := range t.ids {
			id := binary.LittleEndian.Uint64(rest[8*i:])
			if haveID && id <= prevID {
				return nil, fmt.Errorf("era: corrupt live manifest: document ids not strictly ascending")
			}
			if id >= m.nextID {
				return nil, fmt.Errorf("era: corrupt live manifest: document id %d at or past nextID %d", id, m.nextID)
			}
			prevID, haveID = id, true
			t.ids[i] = id
		}
		rest = rest[8*nDocs:]
		if nDead > 0 {
			t.dead = make([]uint32, nDead)
			for i := range t.dead {
				d := binary.LittleEndian.Uint32(rest[4*i:])
				if uint64(d) >= nDocs || (i > 0 && d <= t.dead[i-1]) {
					return nil, fmt.Errorf("era: corrupt live manifest: tombstone index %d out of order or range", d)
				}
				t.dead[i] = d
			}
			rest = rest[4*nDead:]
		}
		m.tiers = append(m.tiers, t)
	}
	return m, nil
}
