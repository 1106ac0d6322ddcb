package main

import (
	"path/filepath"
	"testing"

	"era"
)

// TestBuildAndShardWriteMappedImages: whatever the output is called, `era
// build` and `era shard` write the one index file format, so the file opens
// memory-mapped — a monolithic index from build, a sharded one from shard.
func TestBuildAndShardWriteMappedImages(t *testing.T) {
	dir := t.TempDir()
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

	sharded := filepath.Join(dir, "s.idx")
	shard([]string{"-gen", "dna", "-n", "4000", "-docs", "8", "-shards", "3", "-workers", "2", "-out", sharded})
	sq, err := era.OpenIndex(sharded)
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Close()
	sx, ok := sq.(*era.ShardedIndex)
	if !ok || sq.MappedBytes() == 0 || sx.NumShards() != 3 {
		t.Fatalf("era shard wrote %T with %d mapped bytes, want a mapped *era.ShardedIndex of 3 shards", sq, sq.MappedBytes())
	}
}
