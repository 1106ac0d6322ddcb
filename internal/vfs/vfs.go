// Package vfs is the filesystem seam for the durability-critical write
// paths: index files (every WriteFile, so era build, era shard and its split
// files too), live tiers and manifests, all published by one
// tmp-and-rename, and the WAL. Production code runs on the passthrough OS
// implementation; fault-injection tests swap in FaultFS to fail or truncate
// the Nth operation and to simulate crashes, which is the only way the
// error and recovery paths in publish/seal/compact/manifest-swap/WAL code
// become testable.
//
// The seam covers mutating operations and whole-file reads. Memory-mapped
// reads (mmap of sealed v4 tiers) stay on the real OS: a mapping views real
// pages, and every fault-injection scenario that matters ends at a rename
// or sync boundary before the file is ever mapped.
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
}

// FS is the filesystem surface the durability paths use. Implementations
// must be safe for concurrent use.
type FS interface {
	// Create truncates-or-creates name for writing (os.Create semantics).
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	ReadFile(name string) ([]byte, error)
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

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
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
