package vfs

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// Op classifies the mutating operations FaultFS counts and can fail.
type Op int

const (
	OpCreate Op = iota
	OpWrite
	OpSync
	OpRename
	OpRemove
	OpTruncate
	OpSyncDir
	OpOpenAppend
	OpAllocate
	OpMap
)

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	case OpSyncDir:
		return "syncdir"
	case OpOpenAppend:
		return "open-append"
	case OpAllocate:
		return "allocate"
	case OpMap:
		return "map"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// ErrInjected is the base error of a single injected operation failure.
var ErrInjected = errors.New("vfs: injected fault")

// ErrCrashed is returned by every mutating operation after the filesystem
// has "crashed": the directory image is frozen as of the crash point.
var ErrCrashed = errors.New("vfs: filesystem crashed")

// FaultFS wraps another FS and injects failures:
//
//   - CrashAt(n): the nth mutating operation (1-based, counted across all
//     kinds) and every one after it fail — the on-disk image freezes exactly
//     as it was before that operation. With ShortCrashWrites set, a crashing
//     Write first lands a prefix of its buffer, modeling a torn write.
//   - FailOp(kind, n): the nth operation of that kind fails once with
//     ErrInjected; everything else proceeds. Models a transient I/O error
//     rather than a crash.
//
// All configuration must happen before the FS is handed to the code under
// test (or between operations); counters are internally locked.
type FaultFS struct {
	Base FS

	mu               sync.Mutex
	ops              int  // mutating operations observed
	opKinds          []Op // the kind of each, in order
	crashAt          int  // 0 = disabled
	shortCrashWrites bool
	crashed          bool
	failKind         Op
	failKindAt       int // 0 = disabled
	kindCounts       map[Op]int
}

// NewFault wraps base (nil means the real OS) in a FaultFS with no faults
// armed.
func NewFault(base FS) *FaultFS {
	if base == nil {
		base = OS
	}
	return &FaultFS{Base: base, kindCounts: make(map[Op]int)}
}

// CrashAt arms a crash at the nth mutating operation; n <= 0 disarms.
func (f *FaultFS) CrashAt(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = n
}

// ShortCrashWrites makes a crashing Write land roughly half its buffer
// before failing, modeling a torn write at the crash point.
func (f *FaultFS) ShortCrashWrites(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortCrashWrites = on
}

// FailOp arms a one-shot ErrInjected on the nth operation of the given
// kind; n <= 0 disarms.
func (f *FaultFS) FailOp(kind Op, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failKind, f.failKindAt = kind, n
}

// Ops returns the number of mutating operations observed so far. A fault-
// free rehearsal run measures the crash-point space for a matrix test.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// OpKinds returns the kind of each mutating operation observed so far, in
// order: OpKinds()[n-1] is the operation CrashAt(n) fails.
func (f *FaultFS) OpKinds() []Op {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Op(nil), f.opKinds...)
}

// KindOps returns the number of operations of the given kind observed so
// far. FailOp counts against the same per-kind counter, so
// FailOp(kind, KindOps(kind)+n) fails the nth upcoming operation.
func (f *FaultFS) KindOps(kind Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.kindCounts[kind]
}

// Crashed reports whether the crash point has been reached.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step accounts one mutating operation and decides its fate: err non-nil
// means the operation must fail without touching the base FS; short > 0
// (only for writes, with err == ErrCrashed) means land that many bytes
// first.
func (f *FaultFS) step(kind Op, writeLen int) (short int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, ErrCrashed
	}
	f.ops++
	f.opKinds = append(f.opKinds, kind)
	f.kindCounts[kind]++
	if f.crashAt > 0 && f.ops >= f.crashAt {
		f.crashed = true
		if kind == OpWrite && f.shortCrashWrites && writeLen > 1 {
			return writeLen / 2, ErrCrashed
		}
		return 0, ErrCrashed
	}
	if f.failKindAt > 0 && kind == f.failKind && f.kindCounts[kind] == f.failKindAt {
		f.failKindAt = 0 // one-shot
		return 0, fmt.Errorf("%w: %s #%d", ErrInjected, kind, f.kindCounts[kind])
	}
	return 0, nil
}

func (f *FaultFS) Create(name string) (File, error) {
	if _, err := f.step(OpCreate, 0); err != nil {
		return nil, err
	}
	fl, err := f.Base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: fl}, nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	if _, err := f.step(OpOpenAppend, 0); err != nil {
		return nil, err
	}
	fl, err := f.Base.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: fl}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.Base.ReadFile(name) }

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.Base.ReadDir(name) }

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if _, err := f.step(OpRename, 0); err != nil {
		return err
	}
	return f.Base.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if _, err := f.step(OpRemove, 0); err != nil {
		return err
	}
	return f.Base.Remove(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if _, err := f.step(OpTruncate, 0); err != nil {
		return err
	}
	return f.Base.Truncate(name, size)
}

func (f *FaultFS) Stat(name string) (os.FileInfo, error) { return f.Base.Stat(name) }

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.Base.MkdirAll(path, perm)
}

func (f *FaultFS) SyncDir(dir string) error {
	if _, err := f.step(OpSyncDir, 0); err != nil {
		return err
	}
	return f.Base.SyncDir(dir)
}

// faultFile routes per-file writes, syncs, block reservations and mappings
// through the parent's fault schedule. Close is never failed: the interesting crash points are the
// data-moving operations, and a Close that fails after a crashed write adds
// noise, not coverage.
type faultFile struct {
	fs *FaultFS
	f  File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	short, err := ff.fs.step(OpWrite, len(p))
	if err != nil {
		if short > 0 {
			n, werr := ff.f.Write(p[:short])
			if werr != nil {
				return n, werr
			}
			return n, err
		}
		return 0, err
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if _, err := ff.fs.step(OpSync, 0); err != nil {
		return err
	}
	return ff.f.Sync()
}

// Allocate and Map count as mutating operations: reserving blocks changes
// the file, and a writable mapping is where a build's stores land. A crash
// stops the build before either; stores through a mapping made before the
// crash land only in a tmp file that is never renamed.
func (ff *faultFile) Allocate(size int64) error {
	if _, err := ff.fs.step(OpAllocate, 0); err != nil {
		return err
	}
	return ff.f.Allocate(size)
}

func (ff *faultFile) Map(off int64, n int) ([]byte, error) {
	if _, err := ff.fs.step(OpMap, 0); err != nil {
		return nil, err
	}
	return ff.f.Map(off, n)
}

func (ff *faultFile) Close() error { return ff.f.Close() }
