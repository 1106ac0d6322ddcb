package main

import (
	"encoding/json"
	"strings"
	"testing"

	"era/internal/bench"
)

func testReport() jsonReport {
	tbl := func(id string) *bench.Table {
		return &bench.Table{
			ID:     id,
			Header: []string{"size", "ERA(ms)", "WF/ERA"},
			Rows:   [][]string{{"1", "10.00", "2.50"}, {"2", "21.50", "2.75"}},
			Notes:  []string{"elastic range", "7 scans, 3 groups"},
		}
	}
	return jsonReport{Schema: 3, Scale: "small", Unit: 24576, Experiments: []jsonExperiment{
		{ID: "fig10a", Table: tbl("fig10a")},
		{ID: "scaling", Table: tbl("scaling")},
	}}
}

// clone deep-copies a report the way a record reaches -compare: through JSON.
func clone(t *testing.T, r jsonReport) jsonReport {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out jsonReport
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompareIsExact pins the gate: a report equals itself, a subset of the
// recorded experiments may be compared alone, and every kind of drift fails
// naming where it is.
func TestCompareIsExact(t *testing.T) {
	recorded := testReport()
	if p := diffReports(recorded, clone(t, recorded), "BENCH.json"); len(p) != 0 {
		t.Fatalf("identical report differs: %q", p)
	}
	subset := clone(t, recorded)
	subset.Experiments = subset.Experiments[:1]
	if p := diffReports(recorded, subset, "BENCH.json"); len(p) != 0 {
		t.Fatalf("recorded-but-not-run experiment reported: %q", p)
	}

	scaling := func(r *jsonReport) *bench.Table { return r.Experiments[1].Table }
	for _, tc := range []struct {
		name   string
		mutate func(fresh *jsonReport)
		want   []string // substrings of the one problem reported
	}{
		{"flipped cell", func(f *jsonReport) { scaling(f).Rows[1][2] = "2.76" },
			[]string{"scaling", "row 1", `"WF/ERA"`, "2.76", "2.75"}},
		{"dropped cell", func(f *jsonReport) { scaling(f).Rows[1] = scaling(f).Rows[1][:2] },
			[]string{"scaling", "row 1", "2 cells", "recorded 3"}},
		{"extra cell", func(f *jsonReport) { scaling(f).Rows[0] = append(scaling(f).Rows[0], "x") },
			[]string{"scaling", "row 0", "4 cells", "recorded 3"}},
		{"dropped row", func(f *jsonReport) { scaling(f).Rows = scaling(f).Rows[:1] },
			[]string{"scaling", "1 rows", "recorded 2"}},
		{"changed header", func(f *jsonReport) { scaling(f).Header[1] = "ERA(s)" },
			[]string{"scaling", "header", "ERA(s)"}},
		{"changed note", func(f *jsonReport) { scaling(f).Notes[1] = "8 scans, 3 groups" },
			[]string{"scaling", "note 1", "8 scans", "7 scans"}},
		{"dropped note", func(f *jsonReport) { scaling(f).Notes = scaling(f).Notes[:1] },
			[]string{"scaling", "1 notes", "recorded 2"}},
		{"unrecorded experiment", func(f *jsonReport) { f.Experiments[1].ID = "fig99" },
			[]string{"fig99", "not in BENCH.json", "re-record"}},
		{"other scale", func(f *jsonReport) { f.Scale, f.Unit = "medium", 196608 },
			[]string{"scale small/24576", "medium/196608"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := clone(t, recorded)
			tc.mutate(&fresh)
			p := diffReports(recorded, fresh, "BENCH.json")
			if len(p) != 1 {
				t.Fatalf("want exactly one problem, got %q", p)
			}
			for _, w := range tc.want {
				if !strings.Contains(p[0], w) {
					t.Errorf("problem %q does not mention %q", p[0], w)
				}
			}
		})
	}
}
