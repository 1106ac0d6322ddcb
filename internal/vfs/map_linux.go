package vfs

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// Allocate reserves [0, size) with fallocate(2), mode 0: the file grows to
// size and every block is allocated, or the call fails (ENOSPC on a full
// disk). A filesystem without fallocate answers EOPNOTSUPP.
func (f osFile) Allocate(size int64) error {
	var err error
	for {
		if err = syscall.Fallocate(int(f.Fd()), 0, 0, size); err != syscall.EINTR {
			break
		}
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, syscall.EOPNOTSUPP), errors.Is(err, syscall.ENOSYS):
		return fmt.Errorf("allocate %s: %w", f.Name(), errors.ErrUnsupported)
	}
	return &os.PathError{Op: "allocate", Path: f.Name(), Err: err}
}

// Map maps [off, off+n) of the file read-write and shared.
func (f osFile) Map(off int64, n int) ([]byte, error) {
	b, err := syscall.Mmap(int(f.Fd()), off, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: f.Name(), Err: err}
	}
	return b, nil
}

// Unmap releases a mapping File.Map returned. A nil b is a no-op.
func Unmap(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}
