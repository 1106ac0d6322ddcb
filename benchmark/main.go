// Command benchmark is the repository's performance gate: six workloads
// driven from outside through each layer's public functions, every answer
// checked against a suffix-array oracle, end-to-end metrics as medians over
// timed trials, and a traced pass that attributes the cost layer by layer.
// See README.md in this directory; BENCHMARK.json at the repository root
// names the command the driver runs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

const (
	minSetUps     = 3   // set-ups per untraced run; setup_s is their median
	minSetUpTime  = 1.5 // seconds of set-ups per untraced run: a set-up of 80 ms is repeated until its median is steady
	minTrials     = 3
	closedLoopDiv = 5 // a closed-loop trial is sized to last seconds/5, so a run has about 5
)

// header is recorded at the top of every output.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	MinSetUps  int     `json:"min_set_ups"`
	MinTrials  int     `json:"min_trials"`
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git revision of the checkout the binary was built from.
// run.sh stamps it with -ldflags -X; a checkout that is not a git repository
// (the driver's) leaves it unknown.
var commit = "unknown"

// metricValue is one reported metric: the summary over trials plus its unit.
type metricValue struct {
	summary
	Unit string `json:"unit"`
}

// runResult is one workload × trace mode.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Trials    int                    `json:"trials"`
	Metrics   map[string]metricValue `json:"metrics"`

	order []string // metric names in reporting order
	gated int      // the first gated of them go on the result line the driver reads
}

type runner struct {
	hdr   header
	tmp   string
	spans *spanLog
	nDirs int
}

func (r *runner) env() (*env, error) {
	r.nDirs++
	dir := fmt.Sprintf("%s/%d", r.tmp, r.nDirs)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{seed: r.hdr.Seed, dir: dir}, nil
}

// setUp builds a workload in a scratch directory of its own and reports how
// long that took.
func (r *runner) setUp(def workloadDef) (bench, *env, float64, error) {
	e, err := r.env()
	if err != nil {
		return nil, nil, 0, err
	}
	w := def.new()
	t0 := time.Now()
	if err := w.setUp(e); err != nil {
		os.RemoveAll(e.dir)
		return nil, nil, 0, fmt.Errorf("%s: set-up: %w", def.Name, err)
	}
	return w, e, time.Since(t0).Seconds(), nil
}

func (res *runResult) count(t trialResult) error {
	res.Attempted += t.ops + t.checked
	res.Failed += t.failed
	res.Trials++
	return t.err
}

// endToEnd is a run with tracing off: three set-ups or more, a strictly
// checked warm-up trial, then timed trials for the run's seconds.
func (r *runner) endToEnd(def workloadDef) (*runResult, error) {
	var (
		w      bench
		e      *env
		setupS []float64
	)
	for total := 0.0; ; {
		var (
			s   float64
			err error
		)
		if w, e, s, err = r.setUp(def); err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
		if total += s; len(setupS) >= minSetUps && total >= minSetUpTime {
			break // the last set-up is the one the trials run on
		}
		w.tearDown()
		os.RemoveAll(e.dir)
	}
	defer os.RemoveAll(e.dir)
	defer w.tearDown()

	res := &runResult{Workload: def.Name, Metrics: make(map[string]metricValue)}
	seconds := time.Duration(r.hdr.Seconds * float64(time.Second))
	dur := seconds / closedLoopDiv
	if err := res.count(w.trial(dur, true, nil)); err != nil {
		return nil, err
	}
	res.Trials = 0 // the warm-up is checked and counted, not timed

	vals := map[string][]float64{"setup_s": setupS}
	var pool samples
	tailPct, pooled := w.tail()
	for spent := time.Duration(0); res.Trials < minTrials || spent < seconds; {
		// What the set-up and earlier trials left behind goes back to the
		// OS first, so the high-water mark is this trial's own.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("resetting peak RSS: %w", err)
		}
		t := w.trial(dur, false, nil)
		if err := res.count(t); err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		spent += t.wall
		vals["peak_rss_mb"] = append(vals["peak_rss_mb"], rss)
		for name, v := range t.metrics(tailPct) {
			vals[name] = append(vals[name], v)
		}
		if pooled {
			pool = append(pool, t.lat...)
		}
	}
	if pooled {
		// Too few samples per trial for a tail.
		vals["lat_tail_us"] = pool.pctUS(tailPct)
	}
	vals["index_bytes_per_sym"] = []float64{w.indexBytesPerSym()}
	for _, m := range slices.Concat(endToEnd, wall) {
		res.Metrics[m.Name] = metricValue{summarize(vals[m.Name]), m.Unit}
		res.order = append(res.order, m.Name)
	}
	res.gated = len(endToEnd)
	return res, nil
}

func (t trialResult) opsPerSec() float64 { return float64(t.ops) / t.wall.Seconds() }

// metrics are the figures one trial yields on its own.
func (t trialResult) metrics(tailPct float64) map[string]float64 {
	ops := float64(t.ops)
	p := t.lat.pctUS(50, tailPct)
	return map[string]float64{
		"ops_s":           t.opsPerSec(),
		"lat_p50_us":      p[0],
		"lat_tail_us":     p[1],
		"alloc_kb_per_op": float64(t.allocBytes) / 1024 / ops,
		"allocs_per_op":   float64(t.allocObjects) / ops,
	}
}

// traced is a run with tracing on: one set-up, a warm-up, one trial without
// and one with span recording (their difference is the tracing overhead),
// then the workload's per-layer pass.
func (r *runner) traced(def workloadDef) (*runResult, error) {
	w, e, _, err := r.setUp(def)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	defer w.tearDown()

	res := &runResult{Workload: def.Name, Traced: true, Metrics: make(map[string]metricValue)}
	dur := time.Duration(r.hdr.Seconds * float64(time.Second) / closedLoopDiv)
	trial := func(strict bool, spans *spanLog) (trialResult, error) {
		t := w.trial(dur, strict, spans)
		return t, res.count(t)
	}
	if _, err := trial(true, nil); err != nil {
		return nil, err
	}
	plain, err := trial(false, nil)
	if err != nil {
		return nil, err
	}
	withSpans, err := trial(false, r.spans)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	if err := w.layers(r.spans, out); err != nil {
		return nil, fmt.Errorf("%s: per-layer pass: %w", def.Name, err)
	}
	tailPct, _ := w.tail()
	untraced := plain.metrics(tailPct)
	out["trace_overhead_pct"] = (plain.opsPerSec() - withSpans.opsPerSec()) / plain.opsPerSec() * 100
	for _, m := range wall {
		out["wall."+m.Name] = untraced[m.Name]
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{summary{Median: out[m.Name], Q1: out[m.Name], Q3: out[m.Name], N: 1}, m.Unit}
		res.order = append(res.order, m.Name)
		delete(out, m.Name)
	}
	res.gated = len(perLayer)
	if len(out) > 0 {
		return nil, fmt.Errorf("%s: per-layer pass reported metrics the registry does not know: %v", def.Name, out)
	}
	return res, nil
}

// print writes the human-readable table and, as the last line, the one JSON
// object the driver reads.
func (res *runResult) print() {
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "\n%s (traced=%v, %d trials)\tunit\tmedian\tq1\tq3\tn\t\n", res.Workload, res.Traced, res.Trials)
	for i, name := range res.order {
		m := res.Metrics[name]
		if i == res.gated {
			fmt.Fprintf(tw, "-- wall clock: measured, not gated --\t\t\t\t\t\t\n")
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t\n", name, m.Unit, m.Median, m.Q1, m.Q3, m.N)
	}
	tw.Flush()
	fmt.Printf("fail_ratio %d/%d\n", res.Failed, res.Attempted)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, make(map[string]value)}
	for _, name := range res.order[:res.gated] {
		line.Metrics[name] = value{res.Metrics[name].Median, res.Metrics[name].Unit}
	}
	buf, _ := json.Marshal(line) // floats, strings and ints only: cannot fail
	fmt.Printf("%s\n", buf)
}

func run() error {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "seconds of timed trials per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer pass")
		spansTo = flag.String("spans", "", "write the traced pass's spans to this file as JSON")
		outTo   = flag.String("out", "", "write the header and every metric table to this file as JSON")
		list    = flag.Bool("list", false, "print workloads, metrics, units, directions and bounds, then exit")
	)
	flag.Parse()
	if *list {
		printRegistry(os.Stdout)
		return nil
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be positive and -trace 0 or 1")
	}
	defs := workloads
	if *names != "" {
		defs = nil
		for _, name := range strings.Split(*names, ",") {
			def, ok := findWorkload(name)
			if !ok {
				return fmt.Errorf("unknown workload %q (see -list)", name)
			}
			defs = append(defs, def)
		}
	}

	tmp, err := os.MkdirTemp(".", ".bench_tmp_")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	r := &runner{tmp: tmp, spans: newSpanLog(time.Now()), hdr: header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: cpuModel(),
		Commit: commit, Seed: *seed, Seconds: *seconds, Clients: loadClients, MinSetUps: minSetUps, MinTrials: minTrials,
	}}
	hdr, _ := json.Marshal(r.hdr)
	fmt.Printf("era benchmark %s\n", hdr)

	var (
		results []*runResult
		failed  int64
	)
	for _, def := range defs {
		run := r.endToEnd
		if *trace == 1 {
			run = r.traced
		}
		res, err := run(def)
		if err != nil {
			return err
		}
		res.print()
		results = append(results, res)
		failed += res.Failed
	}

	if *spansTo != "" {
		if err := r.spans.writeFile(*spansTo); err != nil {
			return err
		}
	}
	if *outTo != "" {
		buf, err := json.MarshalIndent(struct {
			Header  header       `json:"header"`
			Results []*runResult `json:"results"`
		}{r.hdr, results}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outTo, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed or answered wrongly", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
