package era

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"era/internal/vfs"
)

// There is one index file format: the page-aligned, offset-based image
// persist_v4.go specifies (the version field says 4). Every writer emits it —
// a monolithic image for an Index, one image of per-shard payloads for a
// ShardedIndex, a frozen monolithic copy for a LiveIndex — and OpenIndex
// serves it zero-copy via mmap; ReadIndex / ReadQueryable accept the same
// bytes from a stream by buffering them (correct, but without the zero-copy
// property).
//
// The formats before it (v1 and v2 node-record streams, the v3 sharded
// manifest) have no reader any more, and neither has a v4 image from before
// the compact node layout: each is recognised by its header and refused with
// ErrMustRebuild.
//
// Everything read from disk is treated as untrusted: name and shard-count
// fields are bounded before allocation, doc-end invariants are validated
// against the string, and the tree view clamps every id and offset — a
// corrupt or hostile file fails with an error, never a panic at query time.
const (
	indexMagic = 0x45524149
	// maxNameLen bounds the corpus and alphabet name fields. WriteTo
	// enforces it so every written index is readable; the readers enforce it
	// so a corrupt or hostile length field fails cleanly instead of
	// demanding a giant allocation.
	maxNameLen = 64 << 10
)

// ErrMustRebuild is wrapped by every refusal of an index file that is intact
// but in a layout this package no longer reads: a v1–v3 file, or a v4 image
// written before the compact node layout. Nothing is wrong with the bytes, so
// a serving layer reports such a file and leaves it where it is (damaged
// files are renamed aside); the remedy is to build the index again.
var ErrMustRebuild = errors.New("era: index must be rebuilt")

// checkIndexHeader vets the first 8 bytes of an index file: the magic, and a
// version this package reads.
func checkIndexHeader(hdr []byte) error {
	if len(hdr) < 8 {
		return fmt.Errorf("era: reading index header: %w", io.ErrUnexpectedEOF)
	}
	if m := binary.LittleEndian.Uint32(hdr); m != indexMagic {
		return fmt.Errorf("era: bad index magic %#x", m)
	}
	switch v := binary.LittleEndian.Uint32(hdr[4:]); {
	case v == flatVersion:
		return nil
	case v >= 1 && v < flatVersion:
		return fmt.Errorf("%w: format v%d is no longer read — rebuild it from its source (this package reads and writes v%d only)", ErrMustRebuild, v, flatVersion)
	default:
		return fmt.Errorf("era: unsupported index version %d", v)
	}
}

// ReadQueryable deserializes an index stream written by WriteTo —
// monolithic or sharded — by buffering it whole; OpenIndex on a file path
// maps it instead.
func ReadQueryable(r io.Reader) (Queryable, error) {
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, 8); err != nil && err != io.EOF {
		return nil, fmt.Errorf("era: reading index header: %w", err)
	}
	if err := checkIndexHeader(buf.Bytes()); err != nil {
		return nil, err
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return parseV4(buf.Bytes(), nil)
}

// ReadIndex deserializes a monolithic index written with Index.WriteTo. For
// streams that may also hold a sharded index, use ReadQueryable.
func ReadIndex(r io.Reader) (*Index, error) {
	q, err := ReadQueryable(r)
	if err != nil {
		return nil, err
	}
	idx, ok := q.(*Index)
	if !ok {
		return nil, fmt.Errorf("era: index is a sharded corpus; read it with ReadQueryable or OpenIndex")
	}
	return idx, nil
}

// WriteFile saves the index to path durably (publishFile): a process that
// has the old file mapped keeps reading the image it mapped, and after a
// crash path holds the old image or the new one, never a torn one.
func (x *Index) WriteFile(path string) error {
	return publishFile(vfs.OS, path, x)
}

// WriteFile saves the sharded index to path as one file, durably, as
// Index.WriteFile does.
func (sx *ShardedIndex) WriteFile(path string) error {
	return publishFile(vfs.OS, path, sx)
}

// WriteFileV4 is q.WriteFile(path): every index writes the one format,
// durably. It stays for callers written when there was a choice.
func WriteFileV4(path string, q Queryable) error {
	return q.WriteFile(path)
}

// publishFile streams a file to disk — index files, the live manifest, and a
// live tier where it cannot be built in place: Create path + ".tmp", write w,
// then commitFile. A live tier built in place (fileSink) writes its tmp
// through a mapping instead, and commits it the same way.
func publishFile(fsys vfs.FS, path string, w io.WriterTo) error {
	f, err := fsys.Create(path + ".tmp")
	if err != nil {
		return fmt.Errorf("era: publishing %s: %w", path, err)
	}
	_, err = w.WriteTo(f)
	return commitFile(fsys, f, path, err)
}

// commitFile finishes publishing path from f, its tmp, written unless err
// says otherwise: Sync, Close, Rename it over path, SyncDir its directory.
// The tmp is removed on any failure before the rename, so path holds the old
// bytes or the new ones, never a torn file; on nil return both the bytes and
// the directory entry naming them are durable. Every error names path, not
// the tmp.
func commitFile(fsys vfs.FS, f vfs.File, path string, err error) error {
	tmp := path + ".tmp"
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("era: publishing %s: %w", path, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("era: syncing directory after publishing %s: %w", path, err)
	}
	return nil
}

// OpenIndex opens an index file written by WriteFile (or WriteTo): an
// *Index for a monolithic image, a *ShardedIndex for a sharded one, and a
// *LiveIndex for a live directory's manifest. Indexes saved without a name
// adopt the file's base name (extension stripped), so every index loaded from
// disk is addressable.
//
// The file is memory-mapped, not deserialized: open cost is O(header)
// regardless of index size, the heap holds only the view structs, and every
// process opening the same file shares one page-cache copy. Call Close on
// the returned index to release the mapping; do not truncate or rewrite the
// file in place while an open index serves it — replace it by rename, as
// WriteFile does.
func OpenIndex(path string) (Queryable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var sniff [12]byte
	n, _ := io.ReadFull(f, sniff[:])
	f.Close()
	if err := checkIndexHeader(sniff[:min(n, 8)]); err != nil {
		// checkIndexHeader errors already carry the package prefix.
		return nil, fmt.Errorf("reading index %s: %w", path, err)
	}
	if n == len(sniff) && binary.LittleEndian.Uint32(sniff[8:]) == 2 {
		// A live manifest: open the whole tier directory it describes.
		return OpenLive(path, nil)
	}
	m, err := openMapping(path)
	if err != nil {
		return nil, err
	}
	idx, err := parseV4(m.bytes(), m)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("reading index %s: %w", path, err)
	}
	if idx.Name() == "" {
		base := filepath.Base(path)
		idx.SetName(strings.TrimSuffix(base, filepath.Ext(base)))
	}
	return idx, nil
}
