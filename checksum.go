package era

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// Checksum plumbing of the persisted images. Everything on disk carries
// CRC32C (Castagnoli) coverage of its payload bytes: index images store
// per-section checksums plus a whole-header checksum in the header
// (persist_v4.go). The header is verified at OpenIndex; the sections — the
// whole mapped file — are verified lazily, once, before the first query
// touches them (eagerly via CheckErr), so opening stays O(header). A
// live manifest, small and read whole, ends with an 8-byte footer instead.
//
// Checksum coverage is integrity, not authentication: it turns silent disk
// or transport corruption into a load-time or first-touch error instead of
// a wrong answer.

// indexFooterMagic introduces the live manifest's trailing checksum footer
// ("ERCK").
const indexFooterMagic = 0x4b435245

// ErrCorruptIndex reports an index whose stored checksums failed to verify.
// Query methods that can error (Occurrences, DocOccurrences, Analytics) wrap
// it, so callers can distinguish corruption from an honest empty answer with
// errors.Is; CheckErr returns the same wrapped verdict directly.
var ErrCorruptIndex = errors.New("era: corrupt index")

// checkSection is one deferred verification window of a v4 image.
type checkSection struct {
	name string
	data []byte
	want uint32
}

// checkState verifies a v4 image's section checksums exactly once, on first
// demand. The fast path after a verdict is a single atomic load.
type checkState struct {
	state atomic.Int32 // 0 unverified, 1 ok, 2 corrupt
	mu    sync.Mutex
	err   error
	secs  []checkSection
}

func (c *checkState) verify() error {
	if c == nil {
		return nil
	}
	if s := c.state.Load(); s == 1 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state.Load() {
	case 1:
		return nil
	case 2:
		return c.err
	}
	for _, s := range c.secs {
		if got := crc32.Checksum(s.data, castagnoli); got != s.want {
			c.err = fmt.Errorf("%w: %s section checksum mismatch (stored %#08x, computed %#08x)", ErrCorruptIndex, s.name, s.want, got)
			c.state.Store(2)
			return c.err
		}
	}
	c.secs = nil // verified; stop pinning the windows
	c.state.Store(1)
	return nil
}

// healthy gates the query paths: a checksummed index answers only after its
// sections verify. A corrupt index degrades to empty answers (the query
// signatures carry no error); CheckErr exposes the verdict, and the serving
// layer checks it before answering so corruption surfaces as an error and a
// quarantine, never a wrong answer.
func (x *Index) healthy() bool { return x.ck == nil || x.ck.verify() == nil }

// CheckErr verifies the index's checksums (once; later calls are a single
// atomic load) and returns the verdict. An index built in this process, not
// opened from a file, has no stored checksums and returns nil.
func (x *Index) CheckErr() error {
	if x.ck == nil {
		return nil
	}
	return x.ck.verify()
}

// CheckErr verifies every shard's checksums and returns the first failure.
func (sx *ShardedIndex) CheckErr() error {
	for i, sh := range sx.shards {
		if err := sh.CheckErr(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
