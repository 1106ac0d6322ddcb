package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompactRefusesOldLayout: `era compact -in` on a v4 image written before
// the compact node layout says so and writes nothing; on a current image it
// is the identity conversion it always was.
func TestCompactRefusesOldLayout(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.v4.idx")
	err := runCompact(filepath.Join("..", "..", "testdata", "old-layout", "mono.idx"), out, true)
	if err == nil || !strings.Contains(err.Error(), "predates the compact node layout") || !strings.Contains(err.Error(), "rebuilt") {
		t.Fatalf("compact of an old-layout image: %v, want a refusal that says it must be rebuilt", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("compact of an old-layout image left an output file (%v)", err)
	}
	if err := runCompact(filepath.Join("..", "..", "testdata", "fixtures", "mono.idx"), out, true); err != nil {
		t.Fatalf("compact of a current image: %v", err)
	}
}
