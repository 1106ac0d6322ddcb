package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestSelfTimeSubtraction(t *testing.T) {
	// One request replayed up a three-rung chain (10 → 25 → 100 ns), plus a
	// side rung with no parent and a request that only reached two rungs.
	spans := []span{
		{ID: 1, Parent: 2, Layer: "suffixtree", Req: 0, Start: 0, End: 10},
		{ID: 2, Parent: 3, Layer: "index", Req: 0, Start: 100, End: 125},
		{ID: 3, Layer: "server.engine", Req: 0, Start: 200, End: 300},
		{ID: 4, Layer: "shard", Req: 0, Start: 400, End: 450},
		{ID: 5, Parent: 6, Layer: "suffixtree", Req: 1, Start: 500, End: 540},
		{ID: 6, Layer: "index", Req: 1, Start: 600, End: 630}, // faster than the rung below
	}
	want := []int64{10, 15, 75, 50, 40, -10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSpanLogMergeAndFile(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }

	main := newSpanLog(epoch)
	first := main.add("index", "count", 0, 0, at(5), at(9))
	client := newSpanLog(epoch)
	child := client.add("suffixtree", "count", 0, 0, at(10), at(12))
	parent := client.add("index", "count", 0, 0, at(20), at(26))
	client.spans[child-1].Parent = parent
	main.merge(client)

	want := []span{
		{ID: 1, Layer: "index", Op: "count", Start: 5, End: 9},
		{ID: 2, Parent: 3, Layer: "suffixtree", Op: "count", Start: 10, End: 12},
		{ID: 3, Layer: "index", Op: "count", Start: 20, End: 26},
	}
	if first != 1 || !reflect.DeepEqual(main.spans, want) {
		t.Fatalf("merged log = %+v, want %+v", main.spans, want)
	}
	if got := selfTimes(main.spans); !reflect.DeepEqual(got, []int64{4, 2, 4}) {
		t.Errorf("selfTimes after merge = %v, want [4 2 4]", got)
	}

	// The file holds everything needed to recompute the self times.
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := main.writeFile(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, want) {
		t.Errorf("span file round trip = %+v, want %+v", back, want)
	}
}
