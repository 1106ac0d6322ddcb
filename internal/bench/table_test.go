package bench

import (
	"reflect"
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
	if len(All) != 16 {
		t.Errorf("expected 16 experiments (every paper table and figure plus the scale-out repro), got %d", len(All))
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// assertModeled fails if the table has a column measured on the host:
// cmd/era-bench gates every cell by equality, so a wall-clock cell would
// fail it on an unchanged binary. Wall time belongs to benchmark/.
func assertModeled(t *testing.T, tbl *Table) {
	t.Helper()
	for _, h := range tbl.Header {
		if strings.Contains(strings.ToLower(h), "wall") {
			t.Errorf("%s: column %q is host-dependent; every cell must be modeled", tbl.ID, h)
		}
	}
}

func TestEveryCellIsModeled(t *testing.T) {
	assertModeled(t, runExp(t, "table2")) // the rest run under TestAllExperimentsRunAtSmallScale
}

// TestTablesRepeat pins the property the exact gate rests on: a second run
// emits the same table, including the one experiment that runs real
// goroutines under a work-stealing scheduler.
func TestTablesRepeat(t *testing.T) {
	for _, id := range []string{"table2", "scaling"} {
		if a, b := runExp(t, id), runExp(t, id); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs differ:\n%+v\n%+v", id, a, b)
		}
	}
}
