//go:build !linux

package vfs

import (
	"errors"
	"fmt"
)

// Allocate cannot reserve blocks here (no fallocate), so no writer maps a
// file it could not finish: each falls back to streamed writes.
func (f osFile) Allocate(int64) error {
	return fmt.Errorf("allocate %s: %w", f.Name(), errors.ErrUnsupported)
}

// Map is never reached here: Allocate comes first and is unsupported.
func (f osFile) Map(int64, int) ([]byte, error) {
	return nil, fmt.Errorf("mmap %s: %w", f.Name(), errors.ErrUnsupported)
}

// Unmap has no mapping to release here.
func Unmap([]byte) error { return nil }
