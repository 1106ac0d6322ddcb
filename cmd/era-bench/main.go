// Command era-bench regenerates the tables and figures of the ERA paper's
// evaluation (§6) on deterministic synthetic workloads.
//
// Usage:
//
//	era-bench -list
//	era-bench -exp fig10a
//	era-bench -exp all -scale medium
//	era-bench -exp scaling -workers 1,2,4,8
//	era-bench -exp all -scale small -json BENCH_new.json -compare BENCH_23.json
//
// Every cell is virtual time or a count (a deterministic disk/cluster cost
// model prices the real counted work), so output is identical on every host
// and at every GOMAXPROCS. -json writes the regenerated tables as a
// machine-readable record; -compare requires the fresh run to equal a
// committed record cell for cell and note for note — any drift is a
// behavior change (README "Testing conventions" says how to re-record).
// Wall time and memory are measured by benchmark/, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"era/internal/bench"
)

// jsonReport is the -json file layout.
type jsonReport struct {
	Schema      int              `json:"schema"`
	Scale       string           `json:"scale"`
	Unit        int              `json:"unit"` // symbols per paper-GB
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID    string       `json:"id"`
	Paper string       `json:"paper"`
	Title string       `json:"title"`
	Table *bench.Table `json:"table"`
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment ids (see -list), comma-separated, or 'all'")
		scale    = flag.String("scale", "small", "workload scale: small, medium or large")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonPath = flag.String("json", "", "also write a machine-readable report (e.g. BENCH_new.json)")
		workers  = flag.String("workers", "", "worker-count sweep for the scaling experiment (e.g. 1,2,4,8)")
		compare  = flag.String("compare", "", "require this run to equal a previous -json record; exit non-zero on any difference")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-8s %-15s %s\n", "ID", "PAPER", "TITLE")
		for _, e := range bench.All {
			fmt.Printf("%-8s %-15s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	sc, err := bench.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	if *workers != "" {
		ws, err := parseWorkers(*workers)
		if err != nil {
			fatal(err)
		}
		bench.ScalingWorkers = ws
	}

	var exps []bench.Experiment
	if *exp == "all" {
		exps = bench.All
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			exps = append(exps, e)
		}
	}

	report := jsonReport{Schema: 3, Scale: sc.Name, Unit: sc.Unit}

	fmt.Printf("scale=%s (1 paper-GB = %d symbols)\n\n", sc.Name, sc.Unit)
	for _, e := range exps {
		start := time.Now()
		tbl, err := e.Run(sc)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("(%s regenerated in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		report.Experiments = append(report.Experiments, jsonExperiment{ID: e.ID, Paper: e.Paper, Title: e.Title, Table: tbl})
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	if *compare != "" {
		buf, err := os.ReadFile(*compare)
		if err != nil {
			fatal(err)
		}
		var recorded jsonReport
		if err := json.Unmarshal(buf, &recorded); err != nil {
			fatal(fmt.Errorf("%s: %w", *compare, err))
		}
		if problems := diffReports(recorded, report, *compare); len(problems) > 0 {
			fatal(fmt.Errorf("run differs from %s:\n  %s", *compare, strings.Join(problems, "\n  ")))
		}
		fmt.Printf("identical to %s\n", *compare)
	}
}

// diffReports lists every difference between the fresh report and the
// recorded one (named name in messages). Every experiment that ran must be
// in the record and equal it; recorded experiments that did not run are not
// a difference, so a single experiment can be compared on its own.
func diffReports(recorded, fresh jsonReport, name string) []string {
	if recorded.Scale != fresh.Scale || recorded.Unit != fresh.Unit {
		return []string{fmt.Sprintf("scale %s/%d does not match this run's %s/%d", recorded.Scale, recorded.Unit, fresh.Scale, fresh.Unit)}
	}
	byID := map[string]*bench.Table{}
	for _, e := range recorded.Experiments {
		byID[e.ID] = e.Table
	}
	var problems []string
	for _, e := range fresh.Experiments {
		old, ok := byID[e.ID]
		if !ok || old == nil {
			problems = append(problems, fmt.Sprintf("%s: not in %s — re-record", e.ID, name))
			continue
		}
		problems = append(problems, diffTables(e.ID, old, e.Table)...)
	}
	return problems
}

// diffTables compares two regenerated tables: header, row count, every
// row's width and cells, and the notes (several carry counts) must be equal.
func diffTables(id string, old, fresh *bench.Table) []string {
	if !slices.Equal(old.Header, fresh.Header) {
		return []string{fmt.Sprintf("%s: header %q != recorded %q", id, fresh.Header, old.Header)}
	}
	if len(old.Rows) != len(fresh.Rows) {
		return []string{fmt.Sprintf("%s: %d rows != recorded %d", id, len(fresh.Rows), len(old.Rows))}
	}
	var problems []string
	for r, row := range fresh.Rows {
		if len(row) != len(old.Rows[r]) {
			problems = append(problems, fmt.Sprintf("%s row %d: %d cells != recorded %d", id, r, len(row), len(old.Rows[r])))
			continue
		}
		for c, nv := range row {
			if ov := old.Rows[r][c]; nv != ov {
				problems = append(problems, fmt.Sprintf("%s row %d col %q: %s != recorded %s", id, r, fresh.Header[c], nv, ov))
			}
		}
	}
	if len(old.Notes) != len(fresh.Notes) {
		return append(problems, fmt.Sprintf("%s: %d notes != recorded %d", id, len(fresh.Notes), len(old.Notes)))
	}
	for i, n := range fresh.Notes {
		if n != old.Notes[i] {
			problems = append(problems, fmt.Sprintf("%s note %d: %q != recorded %q", id, i, n, old.Notes[i]))
		}
	}
	return problems
}

func parseWorkers(s string) ([]int, error) {
	var ws []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("era-bench: bad -workers entry %q", part)
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("era-bench: empty -workers list")
	}
	return ws, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "era-bench:", err)
	os.Exit(1)
}
