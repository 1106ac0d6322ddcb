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
//	leaves    the suffix array, nLeaves × u32, in rank
//	          order                                       (page-aligned)
//	nodes     (nNodes − nLeaves) × 16-byte internal
//	          records                                     (page-aligned)
//	sym       (nNodes − nLeaves) × 1 byte first edge
//	          symbols of the internal nodes, then as many
//	          internal child counts                       (page-aligned)
//
// Header fields (little endian):
//
//	0   magic    u32 'ERAI'
//	4   version  u32 = 4
//	8   kind     u32: 0 monolithic, 1 sharded
//	12  flags    u32 (bit 0, required: the header carries the checksum
//	             block below; bits 1, 3, 4 and 5, required on monolithic and
//	             sharded images: the tree sections are the layout of
//	             suffixtree.FlatTree — no dense child tables (bit 1), leaf
//	             ids that are ranks, so the leaves are the suffix array
//	             (bit 3), 16-byte internal records with no edge offsets,
//	             each edge derived from the suffix array, beside a child
//	             count byte in sym (bit 4), and the suffix array in a leaf
//	             section of its own, ahead of the records (bit 5); bit 2,
//	             the prefix-range layout: on a monolithic image, the tree
//	             holds the suffixes of one range [lo, hi) of the suffix order
//	             and the meta ends with its two keys; required on sharded
//	             images, whose payloads are such ranges, contiguous)
//	16  imageLen u64  total image bytes (truncation check)
//	24  metaOff  u64
//	32  metaLen  u64
//	40.. kind-specific fields. Monolithic: dataOff, dataLen, docEndsOff,
//	    nDocs, nodesOff, nNodes, symOff, leavesOff (u64 each, through byte
//	    104), three reserved zero u64s, nLeaves (bytes 128–136); the rest of
//	    the fixed header is zero too. The leaf section's length is nLeaves ×
//	    4, the node section's (nNodes − nLeaves) × 16. Sharded: shard table
//	    offset, shard count.
//
// The leaf section sits ahead of the records, so its offset depends only on
// |S| and the document count (and the meta's length): the in-place tier
// writer (fileSink) maps it and sorts the suffix array into it before it
// knows how many internal nodes the tree has, then grows the file for the
// records once AssembleShards has counted them.
//
// The checksum block (flags bit 0) grows the header to v4HeaderLenCk bytes:
//
//	152  8 × u32 CRC32C, one per section window; each window runs from its
//	     section's start to the next section's start in file order (trailing
//	     page padding included), the last to imageLen. A section longer than
//	     its window is refused. Monolithic images have six sections, in
//	     slots 0–5: meta, data, docEnds, nodes, sym, then leaves (the newest
//	     section takes the next free slot, not its file position); slots 6
//	     and 7 are zero. Sharded images use slot 0 for meta and slot 1 for
//	     the shard table window; payloads carry their own checksums.
//	184  u32 CRC32C of header bytes [0, 184)
//	188  4 zero bytes (verified; reserved)
//
// The header checksum is verified at open; section windows are verified
// lazily — once, before the first query touches the image — so opening a
// mapped file stays O(header).
//
// The version field has stayed 4 through five tree layouts: 32-byte records
// for every node with 1 KiB dense tables, then 8-byte leaf records beside
// delta-varint leaf blocks, then 32-byte internal records that stated their
// edges over the suffix array, then 16-byte internal records with the suffix
// array behind them in the node section, then this one, whose suffix array is
// a section of its own. An image of any older layout lacks flags bit 5 (the
// older ones bit 4, older still bit 3, the oldest bits 1 and 0 too), and so
// does every sharded image of them — the document-aligned ones lack bit 2 as
// well. All are refused at open with one error (errOldLayout, an
// ErrMustRebuild): their sections would mis-read as this layout, and no
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
// image). One mapping serves every shard.
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
	// v4FlagCompact marks tree sections without dense child tables,
	// v4FlagRankLeaves ones whose leaf ids are ranks — the leaves are the
	// suffix array — v4FlagHalfRecords ones whose internal records are 16
	// bytes, with edges derived from the suffix array and the child counts in
	// the symbol section, and v4FlagLeafSection ones whose suffix array is a
	// section of its own, ahead of the records. Every image this package
	// writes carries all four (v4Layout) and the reader requires them.
	v4FlagCompact     = 1 << 1
	v4FlagRankLeaves  = 1 << 3
	v4FlagHalfRecords = 1 << 4
	v4FlagLeafSection = 1 << 5
	v4Layout          = v4FlagCompact | v4FlagRankLeaves | v4FlagHalfRecords | v4FlagLeafSection
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

// errOldLayout refuses a v4 image of an older tree layout: with the suffix
// array behind the internal records, 32-byte internal records, 8-byte leaf
// records, or older still.
var errOldLayout = fmt.Errorf("%w: the v4 image predates the current tree layout", ErrMustRebuild)

// v4align rounds n up to the page boundary.
func v4align(n int64) int64 {
	return (n + v4Page - 1) &^ (v4Page - 1)
}

// v4sections is the resolved section table of one monolithic image.
type v4sections struct {
	meta           []byte
	data           []byte
	docEnds        []byte
	leaves         []byte
	nodes, sym     []byte
	nDocs, nLeaves int64
	nNodes         int64
	imageLen       int64
	ck             *checkState
	ranged         bool   // flags bit 2: the tree holds one range of the suffix order
	hdrCRC         uint32 // the header's own checksum (Index.Fingerprint)
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

// v4CheckedFlags reads the flags of a monolithic or sharded header and
// verifies its checksums, refusing an image without the flags in want as one
// that predates this layout. An image without the checksum block is old
// whatever else it says; with it, the header is vouched for before its layout
// flags are believed, so a damaged flag is damage, not age.
func v4CheckedFlags(img []byte, want uint32) (crcs [8]uint32, flags uint32, err error) {
	flags = binary.LittleEndian.Uint32(img[12:])
	if flags&v4FlagChecksums == 0 {
		return crcs, flags, errOldLayout
	}
	if crcs, err = v4HeaderChecks(img); err != nil {
		return crcs, flags, err
	}
	if flags&want != want {
		return crcs, flags, errOldLayout
	}
	return crcs, flags, nil
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
	tree, err := suffixtree.NewFlatTree(s.data, s.nodes, s.sym, nil, nil, s.leaves, int32(s.nLeaves))
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
	crcs, flags, err := v4CheckedFlags(img, v4Layout)
	if err != nil {
		return nil, err
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
	// image — so the leaf count, which decides the length of the leaf
	// section and how many of the nodes are internal, is not a free field.
	if (s.nLeaves != dataLen && !s.ranged) || s.nLeaves < 1 || s.nLeaves > dataLen || s.nLeaves >= s.nNodes {
		return nil, fmt.Errorf("era: corrupt index: %d leaves and %d nodes over a %d-byte string", s.nLeaves, s.nNodes, dataLen)
	}
	if s.leaves, err = sliceV4(img, u64(96), s.nLeaves*4, v4Page, "leaves"); err != nil {
		return nil, err
	}
	if s.nodes, err = sliceV4(img, u64(72), suffixtree.FlatNodesLen(s.nNodes-s.nLeaves), v4Page, "nodes"); err != nil {
		return nil, err
	}
	if s.sym, err = sliceV4(img, u64(88), suffixtree.FlatSymLen(s.nNodes-s.nLeaves), v4Page, "sym"); err != nil {
		return nil, err
	}
	for off := 104; off < v4HeaderLen; off += 8 {
		if off != 128 && u64(off) != 0 {
			return nil, fmt.Errorf("era: corrupt index: nonzero reserved header field at byte %d", off)
		}
	}
	// Each checksum window runs from its section's start to the next
	// section's, so the windows tile the image; a section longer than its
	// window overlaps the next one.
	secs := [len(v4MonoSections)][]byte{s.meta, s.data, s.docEnds, s.leaves, s.nodes, s.sym}
	s.ck = &checkState{}
	for i, sec := range v4MonoSections {
		start, end := u64(sec.off), s.imageLen
		if i+1 < len(v4MonoSections) {
			end = u64(v4MonoSections[i+1].off)
		}
		if start < 0 || end < start || end > s.imageLen {
			return nil, fmt.Errorf("era: corrupt index: %s checksum window [%d, %d) outside the %d-byte image", sec.name, start, end, s.imageLen)
		}
		if int64(len(secs[i])) > end-start {
			return nil, fmt.Errorf("era: corrupt index: the %d-byte %s section overruns its window [%d, %d)", len(secs[i]), sec.name, start, end)
		}
		s.ck.secs = append(s.ck.secs, checkSection{name: sec.name, data: img[start:end], want: crcs[sec.slot]})
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
	// The outer windows are header-sized; verify them eagerly. Payloads are
	// monolithic images whose own checksums verify lazily.
	crcs, _, err := v4CheckedFlags(img, v4Layout|v4FlagRange)
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
func (x *Index) v4Meta() []byte { return v4Meta(x.name, x.alpha, x.lo, x.hi) }

// v4Meta packs the meta section of an image named name over alpha whose tree
// holds the range [lo, hi) — the whole suffix order when both are empty.
func v4Meta(name string, alpha *alphabet.Alphabet, lo, hi []byte) []byte {
	syms := alpha.Symbols()
	meta := make([]byte, 0, 20+len(name)+len(alpha.Name())+len(syms)+len(lo)+len(hi))
	for _, f := range [][]byte{[]byte(name), []byte(alpha.Name()), syms} {
		meta = binary.LittleEndian.AppendUint32(meta, uint32(len(f)))
		meta = append(meta, f...)
	}
	if len(lo) > 0 || len(hi) > 0 {
		for _, key := range [][]byte{lo, hi} {
			meta = binary.LittleEndian.AppendUint32(meta, uint32(len(key)))
			meta = append(meta, key...)
		}
	}
	return meta
}

// v4MonoSections names a monolithic image's sections in file order, with the
// header byte that holds each one's offset and its checksum slot. The leaf
// section is the newest, so its offset and slot follow the others' in the
// header.
var v4MonoSections = [6]struct {
	name      string
	off, slot int
}{{"meta", 24, 0}, {"data", 40, 1}, {"docEnds", 56, 2}, {"leaves", 96, 5}, {"nodes", 72, 3}, {"sym", 88, 4}}

// v4Offsets lays out a monolithic image from its section lengths, given in
// file order: the offsets of the sections, then the image length. Each section
// starts on a page; the first, meta, right behind the header. It is the one
// layout: WriteTo streams an index's sections to these offsets, and a
// fileSink places each section there before the build writes it — the leaf
// section's offset needs only the meta, data and docEnds lengths, so it is
// placed before the records are counted.
func v4Offsets(lens [len(v4MonoSections)]int64) (offs [len(v4MonoSections) + 1]int64) {
	off := int64(v4HeaderLenCk)
	for i, n := range lens {
		offs[i] = off
		off = v4align(off + n)
	}
	offs[len(lens)] = offs[len(lens)-1] + lens[len(lens)-1]
	return offs
}

// v4Offsets lays out the index's image, its meta metaLen bytes.
func (x *Index) v4Offsets(metaLen int64) [len(v4MonoSections) + 1]int64 {
	f := x.tree.Sections()
	return v4Offsets([...]int64{metaLen, int64(len(x.data)), 4 * int64(len(x.docEnds)), int64(len(f.LeafData)), int64(len(f.Nodes)), int64(len(f.Sym))})
}

// v4Image is one monolithic image laid out: its header, checksums filled
// in, and its sections in file order, secs[i] starting at offs[i] and padded
// up to offs[i+1] (the last offset is the image length).
type v4Image struct {
	hdr  []byte
	secs [len(v4MonoSections)][]byte
	offs [len(v4MonoSections) + 1]int64
}

// v4Image lays out the index's image: what WriteTo writes, what a fileSink
// writes the header, meta and document ends of around the sections built in
// place, and what Fingerprint reads the header checksum of.
func (x *Index) v4Image() v4Image {
	meta := x.v4Meta()
	f := x.tree.Sections()
	de := make([]byte, 4*len(x.docEnds))
	for i, e := range x.docEnds {
		binary.LittleEndian.PutUint32(de[i*4:], uint32(e))
	}
	img := v4Image{
		hdr:  make([]byte, v4HeaderLenCk),
		secs: [...][]byte{meta, x.data, de, f.LeafData, f.Nodes, f.Sym},
		offs: x.v4Offsets(int64(len(meta))),
	}
	imageLen := img.offs[len(img.secs)]
	flags := uint32(v4FlagChecksums | v4Layout)
	if x.partial() {
		flags |= v4FlagRange
	}
	hdr := img.hdr
	binary.LittleEndian.PutUint32(hdr[0:], indexMagic)
	binary.LittleEndian.PutUint32(hdr[4:], flatVersion)
	binary.LittleEndian.PutUint32(hdr[8:], 0) // monolithic
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(imageLen))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(meta)))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(len(x.data)))
	binary.LittleEndian.PutUint64(hdr[64:], uint64(len(x.docEnds)))
	binary.LittleEndian.PutUint64(hdr[80:], uint64(f.NNodes))
	binary.LittleEndian.PutUint64(hdr[128:], uint64(f.NLeaves))
	// Section offsets, and window checksums, each covering the section and
	// its trailing page padding so every image byte past the header is
	// accounted for.
	for i, sec := range v4MonoSections {
		binary.LittleEndian.PutUint64(hdr[sec.off:], uint64(img.offs[i]))
		binary.LittleEndian.PutUint32(hdr[v4CRCTableOff+4*sec.slot:], crcPadded(img.secs[i], img.offs[i+1]-img.offs[i]))
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
		imageLen := sh.v4Offsets(int64(len(sh.v4Meta())))[len(v4MonoSections)]
		table[2*i] = off
		table[2*i+1] = imageLen
		off = v4align(off + imageLen)
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
	binary.LittleEndian.PutUint32(hdr[12:], v4FlagChecksums|v4Layout|v4FlagRange)
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
