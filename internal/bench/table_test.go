package bench

import (
	"strings"
	"testing"
	"time"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "large"} {
		s, err := ScaleByName(name)
		if err != nil || s.Unit == 0 {
			t.Errorf("ScaleByName(%s) = %+v, %v", name, s, err)
		}
	}
	if _, err := ScaleByName("galactic"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestScaleModelPreservesProportions(t *testing.T) {
	m := Small.Model()
	if m.SeekLatency >= 8*time.Millisecond {
		t.Errorf("seek latency not scaled: %v", m.SeekLatency)
	}
	if m.BlockSize < 16 {
		t.Errorf("block size below floor: %d", m.BlockSize)
	}
	// Per-byte costs are untouched.
	if m.SeqReadBandwidth != 100e6 {
		t.Errorf("bandwidth changed: %v", m.SeqReadBandwidth)
	}
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		ID: "x", Paper: "Fig. 0", Title: "test",
		Header: []string{"a", "long-header"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333333", "4")
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"Fig. 0", "long-header", "333333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestByIDCoversAll(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) = %v, %v", e.ID, got.ID, err)
		}
		if e.Run == nil {
			t.Errorf("%s has no runner", e.ID)
		}
	}
	if len(All) != 20 {
		t.Errorf("expected 20 experiments (every paper table and figure, the scale-out repro, and the serving scenarios shardq/routed/livemix/analytics), got %d", len(All))
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
