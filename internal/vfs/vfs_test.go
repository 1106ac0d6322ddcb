package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestOSRoundTrip exercises every osFS operation against a real temp dir.
func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "a.txt")

	f, err := OS.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	af, err := OS.OpenAppend(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := af.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := OS.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("ReadFile = %q, want %q", got, "hello world")
	}

	if err := OS.Truncate(p, 5); err != nil {
		t.Fatal(err)
	}
	if got, _ = OS.ReadFile(p); string(got) != "hello" {
		t.Fatalf("after truncate: %q, want %q", got, "hello")
	}

	p2 := filepath.Join(dir, "b.txt")
	if err := OS.Rename(p, p2); err != nil {
		t.Fatal(err)
	}
	if _, err := OS.Stat(p2); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	if es, err := OS.ReadDir(dir); err != nil || len(es) != 1 || es[0].Name() != "b.txt" {
		t.Fatalf("ReadDir = %v, %v; want [b.txt]", es, err)
	}
	if err := OS.Remove(p2); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, "x", "y")
	if err := OS.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if fi, err := OS.Stat(sub); err != nil || !fi.IsDir() {
		t.Fatalf("MkdirAll result: %v %v", fi, err)
	}
}

// TestFaultCrashFreezesImage pins the crash semantics: every mutating
// operation from the crash point on fails, and the on-disk image is exactly
// what the pre-crash operations produced.
func TestFaultCrashFreezesImage(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFault(nil)
	p := filepath.Join(dir, "f")

	write := func(name, data string) error {
		f, err := ffs.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte(data)); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	// Rehearse: one file is create+write+sync = 3 ops.
	if err := write("one", "aa"); err != nil {
		t.Fatal(err)
	}
	if got := ffs.Ops(); got != 3 {
		t.Fatalf("rehearsal ops = %d, want 3", got)
	}

	// Crash on the write of the second file: create (op 4) succeeds, write
	// (op 5) fails, and the file stays empty.
	ffs.CrashAt(5)
	if err := write("two", "bb"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash arm: %v, want ErrCrashed", err)
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() = false after crash point")
	}
	got, err := os.ReadFile(filepath.Join(dir, "two"))
	if err != nil || len(got) != 0 {
		t.Fatalf("crashed file holds %q (err %v), want empty", got, err)
	}
	// Everything after the crash fails too.
	if err := ffs.Rename(p, p+"x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash rename: %v, want ErrCrashed", err)
	}
	if err := ffs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash syncdir: %v, want ErrCrashed", err)
	}
	// The first file survived untouched.
	if got, _ := os.ReadFile(filepath.Join(dir, "one")); string(got) != "aa" {
		t.Fatalf("pre-crash file corrupted: %q", got)
	}
}

// TestFaultShortCrashWrite pins the torn-write model: roughly half the
// buffer lands before the crash error.
func TestFaultShortCrashWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFault(nil)
	ffs.ShortCrashWrites(true)
	f, err := ffs.Create(filepath.Join(dir, "torn"))
	if err != nil {
		t.Fatal(err)
	}
	ffs.CrashAt(2) // the write is op 2
	if _, err := f.Write([]byte("abcdefgh")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn write: %v, want ErrCrashed", err)
	}
	f.Close()
	got, _ := os.ReadFile(filepath.Join(dir, "torn"))
	if string(got) != "abcd" {
		t.Fatalf("torn write landed %q, want %q", got, "abcd")
	}
}

// TestFaultFailOpOneShot pins FailOp: exactly the nth operation of the kind
// fails, once, and everything else proceeds.
func TestFaultFailOpOneShot(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFault(nil)
	ffs.FailOp(OpRename, 2)
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if f, err := ffs.Create(a); err != nil {
		t.Fatal(err)
	} else {
		f.Close()
	}
	if err := ffs.Rename(a, b); err != nil {
		t.Fatalf("rename #1: %v", err)
	}
	if err := ffs.Rename(b, a); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename #2: %v, want ErrInjected", err)
	}
	if err := ffs.Rename(b, a); err != nil {
		t.Fatalf("rename #3 (after one-shot): %v", err)
	}
}

// TestAllocateAndMap pins the in-place write path: Allocate grows the file
// with zeros, stores through a Map of it reach the file once synced, and
// FaultFS counts, fails and crashes both operations. Where the platform
// cannot reserve blocks, Allocate says so with errors.ErrUnsupported.
func TestAllocateAndMap(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFault(nil)
	p := filepath.Join(dir, "img")
	f, err := ffs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page := int64(os.Getpagesize())
	if err := f.Allocate(2 * page); errors.Is(err, errors.ErrUnsupported) {
		t.Skipf("no block reservation here: %v", err)
	} else if err != nil {
		t.Fatal(err)
	}
	b, err := f.Map(page, int(page))
	if err != nil {
		t.Fatal(err)
	}
	copy(b, "mapped")
	if err := Unmap(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != 2*page || string(got[page:page+6]) != "mapped" || got[0] != 0 {
		t.Fatalf("the file holds %d bytes, %q at the mapped page", len(got), got[page:page+6])
	}
	if ffs.KindOps(OpAllocate) != 1 || ffs.KindOps(OpMap) != 1 {
		t.Fatalf("counted %d allocations and %d mappings, want 1 and 1", ffs.KindOps(OpAllocate), ffs.KindOps(OpMap))
	}
	ffs.FailOp(OpMap, 2)
	if _, err := f.Map(0, int(page)); !errors.Is(err, ErrInjected) {
		t.Fatalf("second Map: %v, want ErrInjected", err)
	}
	ffs.CrashAt(ffs.Ops() + 1)
	if err := f.Allocate(3 * page); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Allocate at the crash point: %v, want ErrCrashed", err)
	}
	if fi, err := os.Stat(p); err != nil || fi.Size() != 2*page {
		t.Fatalf("the crashed Allocate grew the file: %v %v", fi.Size(), err)
	}
}
