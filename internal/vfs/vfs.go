// Package vfs is the filesystem seam for the durability-critical write
// paths: index files (every WriteFile, so era build, era shard and its split
// files too), live tiers and manifests, all published by one
// tmp-and-rename, and the WAL. Production code runs on the passthrough OS
// implementation; fault-injection tests swap in FaultFS to fail or truncate
// the Nth operation and to simulate crashes, which is the only way the
// error and recovery paths in publish/seal/compact/manifest-swap/WAL code
// become testable.
//
// The seam covers mutating operations, whole-file and directory reads, and
// the two steps that let a writer build a file in memory it maps: reserving
// the file's blocks (File.Allocate) and mapping them writable (File.Map). A
// live tier is built that way, straight into its tmp file, so a fault or a
// crash can stop it while it is mapped as well as at a write, sync or rename
// boundary. Read-only mappings of published files (OpenIndex) stay on the
// real OS: they view pages that a rename has already made durable.
package vfs

import (
	"io"
	"os"
)

// File is the writable-file surface the durability paths use.
type File interface {
	io.Writer
	Sync() error
	Close() error
	// Allocate reserves the file's blocks up to size bytes, growing it with
	// zeros, so that a store through a mapping of them cannot fail for want
	// of space: a full disk is an error here, not a fault later. Where the
	// platform or the filesystem cannot reserve blocks it returns an error
	// wrapping errors.ErrUnsupported.
	Allocate(size int64) error
	// Map maps n bytes of the file at off, a multiple of the OS page size,
	// shared and writable: stores reach the file, and Sync makes them
	// durable. Release the mapping with Unmap, before Close or after it.
	Map(off int64, n int) ([]byte, error)
}

// FS is the filesystem surface the durability paths use. Implementations
// must be safe for concurrent use.
type FS interface {
	// Create truncates-or-creates name for writing (os.Create semantics).
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory's entries, sorted by name.
	ReadDir(name string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	Stat(name string) (os.FileInfo, error)
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so a just-renamed entry is durable.
	SyncDir(dir string) error
}

// OS is the passthrough implementation backed by the real filesystem.
var OS FS = osFS{}

type osFS struct{}

// osFile is an *os.File with the File methods the os package lacks
// (Allocate and Map, per platform).
type osFile struct{ *os.File }

func (osFS) Create(name string) (File, error) { return wrap(os.Create(name)) }

func (osFS) OpenAppend(name string) (File, error) {
	return wrap(os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644))
}

func wrap(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
