package era

import (
	"context"
	"errors"
	"fmt"
	"os"
	"unsafe"

	"era/internal/alphabet"
	"era/internal/suffixtree"
	"era/internal/vfs"
)

// imageSink is where a build puts the sections of the monolithic image it
// builds: the string first (text), then, as suffixtree.Sink, the suffix array
// and the tree's node and symbol sections. heapSink allocates them, as every
// heap index is built; a fileSink hands out the sections of a live tier's
// file, mapped, so the tier is built where it is published.
type imageSink interface {
	suffixtree.Sink
	// text returns the data section for the terminated n-byte string of an
	// image of nDocs documents over alpha.
	text(n, nDocs int, alpha *alphabet.Alphabet) ([]byte, error)
}

// heapSink allocates every section.
type heapSink struct{ suffixtree.HeapSink }

func (heapSink) text(n, _ int, _ *alphabet.Alphabet) ([]byte, error) { return make([]byte, n), nil }

// fileSink builds one monolithic image in place in path's tmp file, in the
// order the build asks for its sections:
//
//  1. text: the file is created, its blocks reserved (vfs.File.Allocate) and
//     mapped up to the end of the leaf section, whose offset needs only the
//     meta, string and document-end lengths (v4Offsets) — a tier's meta is
//     its alphabet's, the tier being unnamed and over the whole suffix
//     order; the string is written into the mapping.
//  2. Leaves: the leaf section, viewed as the []int32 the sort writes.
//  3. Tree: once the internal nodes are counted, the file grows to the
//     image's length and the node and symbol sections are mapped.
//  4. publish: the header with its checksums, the meta and the document ends
//     are written, the mappings released, and the file published by the
//     fsync'd tmp-and-rename every index file takes (commitFile), then mapped
//     back read-only.
//
// Where blocks cannot be reserved (errors.ErrUnsupported: the platform or
// the filesystem has no fallocate) or the host is big-endian, so the leaf
// section is no []int32, the sink hands out heap sections instead and
// publish streams the built index through publishFile, as WriteFile does.
// abort releases whatever a failed or cancelled build left.
type fileSink struct {
	fs   vfs.FS
	path string
	heap bool     // building on the heap, to be streamed to path
	f    vfs.File // path's tmp, from text until publish or abort
	head []byte   // mapping of [0, end of the leaf section)
	tail []byte   // mapping from the page holding the node section to the end
	// tailOff is tail's file offset; lens the section lengths in file order,
	// the node and symbol sections' zero until Tree.
	tailOff int64
	lens    [len(v4MonoSections)]int64
}

func newFileSink(fsys vfs.FS, path string) *fileSink {
	return &fileSink{fs: fsys, path: path, heap: !hostLittleEndian}
}

func (s *fileSink) tmp() string { return s.path + ".tmp" }

func (s *fileSink) text(n, nDocs int, alpha *alphabet.Alphabet) ([]byte, error) {
	if s.heap {
		return heapSink{}.text(n, nDocs, alpha)
	}
	metaLen := len(v4Meta("", alpha, nil, nil))
	s.lens = [...]int64{int64(metaLen), int64(n), 4 * int64(nDocs), 4 * int64(n), 0, 0}
	offs := v4Offsets(s.lens)
	end := offs[3] + s.lens[3]
	f, err := s.fs.Create(s.tmp())
	if err != nil {
		return nil, s.failed(err)
	}
	s.f = f
	if err := f.Allocate(end); err != nil {
		if !errors.Is(err, errors.ErrUnsupported) {
			return nil, s.failed(err)
		}
		s.abort()
		s.heap = true
		return heapSink{}.text(n, nDocs, alpha)
	}
	if s.head, err = f.Map(0, int(end)); err != nil {
		return nil, s.failed(err)
	}
	return s.head[offs[1] : offs[1]+s.lens[1] : offs[1]+s.lens[1]], nil
}

func (s *fileSink) Leaves(n int) ([]int32, error) {
	if s.heap {
		return heapSink{}.Leaves(n)
	}
	if 4*int64(n) != s.lens[3] {
		return nil, fmt.Errorf("era: a %d-entry suffix array in an image laid out for %d", n, s.lens[3]/4)
	}
	off := v4Offsets(s.lens)[3]
	return unsafe.Slice((*int32)(unsafe.Pointer(&s.head[off])), n), nil
}

func (s *fileSink) Tree(nInt int) (nodes, sym []byte, err error) {
	if s.heap {
		return heapSink{}.Tree(nInt)
	}
	s.lens[4], s.lens[5] = suffixtree.FlatNodesLen(int64(nInt)), suffixtree.FlatSymLen(int64(nInt))
	offs := v4Offsets(s.lens)
	size := offs[len(s.lens)]
	if err := s.f.Allocate(size); err != nil {
		return nil, nil, s.failed(err)
	}
	// The image's pages are v4Page; the OS's may be larger.
	s.tailOff = offs[4] &^ (int64(os.Getpagesize()) - 1)
	if s.tail, err = s.f.Map(s.tailOff, int(size-s.tailOff)); err != nil {
		return nil, nil, s.failed(err)
	}
	return s.at(offs[4], s.lens[4]), s.at(offs[5], s.lens[5]), nil
}

// failed names the file a filesystem error stopped the build of.
func (s *fileSink) failed(err error) error {
	return fmt.Errorf("era: building %s in place: %w", s.path, err)
}

// at returns the n bytes at file offset off: from head if it holds them,
// else from tail.
func (s *fileSink) at(off, n int64) []byte {
	if end := off + n; end <= int64(len(s.head)) {
		return s.head[off:end:end]
	}
	off -= s.tailOff
	return s.tail[off : off+n : off+n]
}

// publish makes the image idx — built from this sink's sections — the file
// at path, and returns the published file mapped read-only. The header, the
// meta and the document ends are all it writes: v4Image lays idx out with
// the offsets the sections were placed at, which publish checks. A section
// not at its place (an encoded copy of the suffix array, on a host whose
// leaf section cannot view it) is copied there. The mappings are released
// before the file is synced and mapped back, so no page of it is resident
// twice.
func (s *fileSink) publish(idx *Index) (*Index, error) {
	if s.heap {
		if err := publishFile(s.fs, s.path, idx); err != nil {
			return nil, err
		}
		return openTierFile(s.path)
	}
	img := idx.v4Image()
	if img.offs != v4Offsets(s.lens) {
		return nil, fmt.Errorf("era: the built tier's layout %v is not the one its file was mapped for %v", img.offs, v4Offsets(s.lens))
	}
	copy(s.head, img.hdr)
	for i, sec := range img.secs {
		if dst := s.at(img.offs[i], int64(len(sec))); len(sec) > 0 && &dst[0] != &sec[0] {
			copy(dst, sec)
		}
	}
	err := s.unmap()
	f := s.f
	s.f = nil
	if err := commitFile(s.fs, f, s.path, err); err != nil {
		return nil, err
	}
	return openTierFile(s.path)
}

// unmap releases both mappings.
func (s *fileSink) unmap() error {
	err := errors.Join(vfs.Unmap(s.head), vfs.Unmap(s.tail))
	s.head, s.tail = nil, nil
	return err
}

// abort releases the mappings and removes the tmp file of a build that
// failed or was cancelled. Idempotent.
func (s *fileSink) abort() {
	s.unmap()
	if s.f != nil {
		s.f.Close()
		s.fs.Remove(s.tmp())
		s.f = nil
	}
}

// buildTierFile builds the tier over docs straight into its file at path
// through a fileSink, publishes it, and returns it mapped. A failed or
// cancelled build leaves no tmp file behind (a crashed one does; the next
// open sweeps it).
func buildTierFile(ctx context.Context, fsys vfs.FS, path string, docs [][]byte, cfg *Config) (*Index, error) {
	sink := newFileSink(fsys, path)
	shards, err := buildShards(ctx, docs, cfg, 1, sink)
	var idx *Index
	if err == nil {
		idx, err = sink.publish(shards[0])
	}
	if err != nil {
		sink.abort()
		return nil, err
	}
	return idx, nil
}

// openTierFile maps a just-published tier file back in.
func openTierFile(path string) (*Index, error) {
	opened, err := OpenIndex(path)
	if err != nil {
		return nil, fmt.Errorf("era: reopening sealed tier: %w", err)
	}
	mono, ok := opened.(*Index)
	if !ok {
		opened.Close()
		return nil, fmt.Errorf("era: sealed tier %s is not a monolithic index", path)
	}
	return mono, nil
}
