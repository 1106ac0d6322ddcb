// Package bench is the experiment harness: one runner per table and figure
// of the ERA paper's evaluation (§6). Each runner regenerates the
// corresponding series — same sweeps, same competitors — on deterministic
// synthetic datasets scaled down from the paper's multi-gigabyte corpora.
//
// Scaling: the paper's sizes are expressed in "paper gigabytes"; a Scale
// maps one paper-GB to a laptop-sized symbol count while preserving every
// memory:string ratio, which is what the algorithms are sensitive to. Every
// cell is virtual time or a count (the sim.CostModel prices the real counted
// work), so tables are deterministic and machine-independent: cmd/era-bench
// gates them by equality against the committed record, and the shape tests
// in bench_test.go compare them with the paper's claims. Wall time, memory
// and the serving layers are measured by benchmark/, not here.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/workload"
)

// Scale maps paper gigabytes to simulated symbols/bytes.
type Scale struct {
	Name string
	// Unit is the number of symbols (and budget bytes) standing in for one
	// paper gigabyte.
	Unit int
}

// Predefined scales. Small keeps the full (non -short) test run and the CI
// gate tolerable and is cmd/era-bench's default; Medium and Large stress the
// simulator. The shape tests in bench_test.go hold at every scale; bigger
// scales separate the competitors more cleanly.
var (
	Small  = Scale{Name: "small", Unit: 24 * 1024}
	Medium = Scale{Name: "medium", Unit: 192 * 1024}
	Large  = Scale{Name: "large", Unit: 768 * 1024}
)

// ScaleByName resolves a scale name.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case Small.Name:
		return Small, nil
	case Medium.Name:
		return Medium, nil
	case Large.Name:
		return Large, nil
	}
	return Scale{}, fmt.Errorf("bench: unknown scale %q (want small, medium or large)", name)
}

// GB converts paper gigabytes to scaled symbols/bytes.
func (s Scale) GB(g float64) int { return int(g * float64(s.Unit)) }

// Model returns the paper-class cost model with its *fixed* costs (seek
// latency, network latency, block granularity) scaled by Unit/1 GB. Per-byte
// and per-operation costs need no adjustment — the workloads themselves are
// scaled — but fixed costs would otherwise dominate small runs and flatten
// every figure into "seek time".
func (s Scale) Model() sim.CostModel {
	m := sim.DefaultModel()
	f := float64(s.Unit) / float64(1<<30)
	m.SeekLatency = time.Duration(float64(m.SeekLatency) * f)
	m.NetLatency = time.Duration(float64(m.NetLatency) * f)
	if bs := int(float64(m.BlockSize) * f); bs >= 16 {
		m.BlockSize = bs
	} else {
		m.BlockSize = 16
	}
	return m
}

// Table is one regenerated table or figure.
type Table struct {
	ID     string
	Paper  string // the paper's table/figure number
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s (%s): %s ==\n", t.ID, t.Paper, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment is one runnable paper experiment.
type Experiment struct {
	ID    string
	Paper string
	Title string
	Run   func(Scale) (*Table, error)
}

// All lists every experiment in paper order.
var All = []Experiment{
	{"table2", "Table 2", "algorithm taxonomy and micro-comparison", RunTable2},
	{"fig7a", "Fig. 7(a)", "ERa-str vs ERa-str+mem, variable string size", RunFig7a},
	{"fig7b", "Fig. 7(b)", "ERa-str vs ERa-str+mem, variable memory", RunFig7b},
	{"fig8a", "Fig. 8(a)", "tuning R, DNA (small alphabet)", RunFig8a},
	{"fig8b", "Fig. 8(b)", "tuning R, protein (large alphabet)", RunFig8b},
	{"fig9a", "Fig. 9(a)", "virtual trees vs no grouping", RunFig9a},
	{"fig9b", "Fig. 9(b)", "elastic range vs static ranges", RunFig9b},
	{"fig10a", "Fig. 10(a)", "ERA vs WF vs B2ST vs TRELLIS, variable memory", RunFig10a},
	{"fig10b", "Fig. 10(b)", "ERA vs WF vs B2ST, variable string size", RunFig10b},
	{"fig11a", "Fig. 11(a)", "ERA across alphabets", RunFig11a},
	{"fig11b", "Fig. 11(b)", "WaveFront across alphabets", RunFig11b},
	{"fig12a", "Fig. 12(a)", "shared-disk strong scalability, genome", RunFig12a},
	{"fig12b", "Fig. 12(b)", "shared-disk scalability and seek optimization, DNA", RunFig12b},
	{"table3", "Table 3", "shared-nothing strong scalability, genome", RunTable3},
	{"fig13", "Fig. 13", "shared-nothing weak scalability, DNA", RunFig13},
	{"scaling", "Fig. 12 (repro)", "scale-out: chunked VP + work-stealing scheduler", RunScaling},
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// dataset publishes a deterministic workload on a fresh simulated disk
// priced by the scale's model.
func (s Scale) dataset(kind workload.Kind, symbols int, seed int64) (*seq.File, error) {
	a, err := workload.AlphabetOf(kind)
	if err != nil {
		return nil, err
	}
	data, err := workload.Generate(kind, symbols, seed)
	if err != nil {
		return nil, err
	}
	disk := diskio.NewDisk(s.Model())
	return seq.Publish(disk, string(kind)+".seq", a, data)
}

// genomeGB is the human genome's size in paper gigabytes (2.6 Gsym).
const genomeGB = 2.6

// ms formats a duration as fractional milliseconds of virtual time.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// ratio formats a/b.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func ftoa(v float64) string { return fmt.Sprintf("%.1f", v) }
