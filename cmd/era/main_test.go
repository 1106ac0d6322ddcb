package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"era"
)

// TestBuildAndShardWriteMappedImages: whatever the output is called, `era
// build` and `era shard` write the one index file format, so the file opens
// memory-mapped — a monolithic index from build, a sharded one from shard,
// and with -splitdir one file per shard, whose tree holds the shard's range.
func TestBuildAndShardWriteMappedImages(t *testing.T) {
	// Both commands create -out's directory.
	dir := filepath.Join(t.TempDir(), "out")
	mono := filepath.Join(dir, "x.idx")
	build([]string{"-gen", "dna", "-n", "4000", "-out", mono})
	q, err := era.OpenIndex(mono)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, ok := q.(*era.Index); !ok || q.MappedBytes() == 0 || q.Name() != "x" {
		t.Fatalf("era build wrote %T %q with %d mapped bytes, want a mapped *era.Index named x", q, q.Name(), q.MappedBytes())
	}

	sharded := filepath.Join(dir, "sharded", "s.idx")
	split := filepath.Join(dir, "split")
	shard([]string{"-gen", "dna", "-n", "4000", "-docs", "8", "-shards", "3", "-workers", "2", "-name", "s", "-splitdir", split, "-out", sharded})
	sq, err := era.OpenIndex(sharded)
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Close()
	sx, ok := sq.(*era.ShardedIndex)
	if !ok || sq.MappedBytes() == 0 || sx.NumShards() != 3 {
		t.Fatalf("era shard wrote %T with %d mapped bytes, want a mapped *era.ShardedIndex of 3 shards", sq, sq.MappedBytes())
	}
	for i := 0; i < sx.NumShards(); i++ {
		want, _ := sx.Shard(i)
		f, err := era.OpenIndex(filepath.Join(split, fmt.Sprintf("s~%d.idx", i)))
		if err != nil {
			t.Fatal(err)
		}
		got := f.(*era.Index)
		glo, ghi := got.Range()
		wlo, whi := want.Range()
		if !bytes.Equal(glo, wlo) || !bytes.Equal(ghi, whi) || got.Suffixes() != want.Suffixes() || got.Len() != sx.Len() {
			t.Errorf("s~%d.idx holds [%q, %q), %d suffixes of %d; shard %d of s.idx [%q, %q), %d of %d",
				i, glo, ghi, got.Suffixes(), got.Len(), i, wlo, whi, want.Suffixes(), sx.Len())
		}
		f.Close()
	}
	stats([]string{"-index", filepath.Join(split, "s~1.idx")})
	stats([]string{"-index", sharded})
}
