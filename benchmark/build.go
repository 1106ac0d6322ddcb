package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"era"
	"era/internal/alphabet"
	"era/internal/core"
	"era/internal/diskio"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/suffixtree"
	"era/internal/workload"
)

const (
	buildSymbols = 512 << 10
	buildDocs    = 64
	// The serial cell gets 4 bytes of budget per symbol, the paper's
	// out-of-core regime (many groups, many scans). The parallel cell is
	// pinned to the default 64 MiB: SharedDisk builds panic at tight budgets
	// (see README, baseline findings).
	serialBytesPerSym = 4
	parBudget         = 64 << 20
	buildProbes       = 512 // oracle-checked count queries against each reopened image
)

// publish puts the corpus on a fresh simulated disk the way era.BuildCorpus
// does, so core can be driven on the benchmark's own seq.File.
func publish(c *corpus) (*seq.File, []byte, error) {
	alpha, err := workload.AlphabetOf(c.kind)
	if err != nil {
		return nil, nil, err
	}
	text := append(slices.Clip(c.data), alphabet.Terminator)
	f, err := seq.Publish(diskio.NewDisk(sim.DefaultModel()), "input.seq", alpha, text)
	return f, text, err
}

// buildFlatTree reaches the bare serving tree below era.Index:
// core.BuildSerial with direct flat assembly, viewed by NewFlatTree.
func buildFlatTree(c *corpus) (*suffixtree.FlatTree, error) {
	f, text, err := publish(c)
	if err != nil {
		return nil, err
	}
	res, err := core.BuildSerial(f, core.Options{MemoryBudget: parBudget, AssembleFlat: true})
	if err != nil {
		return nil, err
	}
	fl := res.Flat
	return suffixtree.NewFlatTree(text, fl.Nodes, fl.Sym, fl.Dense, fl.LeafIdx, fl.LeafData, fl.NLeaves)
}

// buildWorkload: construction, the paper's headline. One operation is a
// pair of cells — serial at the tight budget, then SharedDisk on every core
// — each taken through write, open, verify and oracle-checked queries.
type buildWorkload struct {
	corp  *corpus
	want  *expect
	dir   string
	image int64
	cells map[string][]float64 // seconds per phase, one entry per trial
}

func (w *buildWorkload) setUp(e *env) error {
	corp, err := genCorpus(workload.DNA, buildSymbols, buildDocs, e.seed)
	if err != nil {
		return err
	}
	orc, err := newOracle(corp.data)
	if err != nil {
		return err
	}
	w.corp, w.dir = corp, e.dir
	w.want = orc.expect(genUniverse(corp.data, e.seed)[:buildProbes])
	w.cells = make(map[string][]float64)
	return nil
}

func (w *buildWorkload) tearDown() {}

func (w *buildWorkload) serialConfig() *era.Config {
	return &era.Config{Target: era.TargetFlat, MemoryBudget: serialBytesPerSym * int64(len(w.corp.data))}
}

func (w *buildWorkload) parConfig() *era.Config {
	return &era.Config{Target: era.TargetFlat, Mode: era.SharedDisk, Workers: runtime.NumCPU(), MemoryBudget: parBudget}
}

// cell builds the corpus under cfg and takes the result through
// WriteFileV4, OpenIndex, era.Verify and the probe queries.
func (w *buildWorkload) cell(name string, cfg *era.Config, spans *spanLog) error {
	phase := func(op string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		w.cells[op] = append(w.cells[op], t1.Sub(t0).Seconds())
		if spans != nil {
			layer := "persist"
			if op == name {
				layer = "index"
			}
			spans.add(layer, op, int32(len(w.cells[op])), 0, t0, t1)
		}
		return err
	}
	path := filepath.Join(w.dir, name+".idx")
	defer os.Remove(path)
	var idx *era.Index
	if err := phase(name, func() (err error) {
		idx, err = era.BuildCorpus(w.corp.docs, cfg)
		return err
	}); err != nil {
		return err
	}
	idx.SetName(corpusName)
	if err := phase(name+".write", func() error { return era.WriteFileV4(path, idx) }); err != nil {
		return err
	}
	var q era.Queryable
	if err := phase(name+".open", func() (err error) {
		q, err = era.OpenIndex(path)
		return err
	}); err != nil {
		return err
	}
	defer q.Close()
	w.image = q.MappedBytes()
	if err := phase(name+".verify", func() error {
		rep, err := era.Verify(path)
		if err == nil && !rep.OK() {
			err = fmt.Errorf("era.Verify: %v", rep.Problems)
		}
		return err
	}); err != nil {
		return err
	}
	for i, p := range w.want.universe {
		if got := q.Count(p); got != int(w.want.counts[i]) {
			return fmt.Errorf("%s image: Count(%q) = %d, oracle says %d", name, p, got, w.want.counts[i])
		}
	}
	return nil
}

func (w *buildWorkload) trial(_ time.Duration, _ bool, spans *spanLog) trialResult {
	res := trialResult{ops: 1}
	m := startMeter()
	err := w.cell("serial", w.serialConfig(), spans)
	if err == nil {
		err = w.cell("par", w.parConfig(), spans)
	}
	res.usage = m.stop()
	res.lat = samples{res.wall.Nanoseconds()}
	if err != nil {
		fmt.Fprintln(os.Stderr, "build:", err)
		res.failed = 1
	}
	return res
}

func (w *buildWorkload) tail() (float64, bool) { return 100, true }

func (w *buildWorkload) indexBytesPerSym() float64 {
	return float64(w.image) / float64(len(w.corp.data))
}

func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// layers times core on the benchmark's own seq.File: vertical partitioning
// alone, the serial build without and with flat assembly (their differences
// are the group and assembly phases), and serial against parallel at one
// budget. Counts come from the tight-budget build and its simulated disk.
func (w *buildWorkload) layers(spans *spanLog, out map[string]float64) error {
	timed := func(op string, fn func() error) (float64, error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		spans.add("core", op, 0, 0, t0, t1)
		return t1.Sub(t0).Seconds(), err
	}
	budget := w.serialConfig().MemoryBudget

	f, _, err := publish(w.corp)
	if err != nil {
		return err
	}
	vp, err := timed("vp", func() error {
		layout, err := core.PlanMemory(budget, 0, f.Alphabet().Bits())
		if err != nil {
			return err
		}
		clock := new(sim.Clock)
		sc, err := f.NewScanner(clock, seq.ScannerConfig{BufSize: int(layout.InputBuf)})
		if err != nil {
			return err
		}
		_, _, err = core.VerticalPartition(f, sc, clock, f.Disk().Model(), layout.FM, true)
		return err
	})
	if err != nil {
		return err
	}
	noAsm, err := timed("serial.noassemble", func() error {
		_, err := core.BuildSerial(f, core.Options{MemoryBudget: budget})
		return err
	})
	if err != nil {
		return err
	}

	// A fresh disk, so its counters cover exactly one assembled build.
	if f, _, err = publish(w.corp); err != nil {
		return err
	}
	var res *core.Result
	heap0, _ := heapAllocated()
	gc0 := gcCycles()
	asm, err := timed("serial.assemble", func() (err error) {
		res, err = core.BuildSerial(f, core.Options{MemoryBudget: budget, AssembleFlat: true})
		return err
	})
	if err != nil {
		return err
	}
	heap1, _ := heapAllocated()
	out["core.alloc_mb"] = float64(heap1-heap0) / (1 << 20)
	out["core.gc_cycles"] = float64(gcCycles() - gc0)
	out["core.vp_s"] = vp
	out["core.groups_s"] = noAsm - vp
	out["core.assemble_s"] = asm - noAsm

	st, ds := res.Stats, f.Disk().Stats()
	out["core.scans"] = float64(st.Scans)
	out["core.groups"] = float64(st.Groups)
	out["core.subtrees"] = float64(st.SubTrees)
	out["core.rounds"] = float64(st.Rounds)
	out["core.symbols_read"] = float64(st.SymbolsRead)
	out["core.bytes_fetched"] = float64(st.BytesFetched)
	out["core.tree_nodes"] = float64(res.Flat.NNodes - 1)
	out["core.modeled_s"] = st.VirtualTime.Seconds()
	out["core.modeled_over_wall"] = st.VirtualTime.Seconds() / asm
	out["diskio.read_ops"] = float64(ds.ReadOps)
	out["diskio.bytes_read"] = float64(ds.BytesRead)
	out["diskio.seeks"] = float64(ds.Seeks)

	serialWide, err := timed("serial.wide", func() error {
		_, err := core.BuildSerial(f, core.Options{MemoryBudget: parBudget, AssembleFlat: true})
		return err
	})
	if err != nil {
		return err
	}
	par, err := timed("parallel", func() error {
		_, err := core.BuildParallel(f, core.ParallelOptions{
			Options: core.Options{MemoryBudget: parBudget, AssembleFlat: true}, Workers: runtime.NumCPU()})
		return err
	})
	if err != nil {
		return err
	}
	out["core.par_speedup"] = serialWide / par

	// The index and persist layers, from the phases the trials timed.
	msym := float64(len(w.corp.data)) / 1e6
	cellS := func(name string) float64 {
		return median(w.cells[name]) + median(w.cells[name+".write"]) + median(w.cells[name+".open"]) + median(w.cells[name+".verify"])
	}
	out["index.build_serial_msym_s"] = msym / cellS("serial")
	out["index.build_par_msym_s"] = msym / cellS("par")
	out["index.build_overhead_s"] = median(w.cells["serial"]) - asm
	out["persist.write_s"] = median(w.cells["serial.write"])
	out["persist.write_mb_s"] = float64(w.image) / 1e6 / out["persist.write_s"]
	out["persist.open_us"] = median(w.cells["serial.open"]) * 1e6
	out["persist.verify_s"] = median(w.cells["serial.verify"])
	out["persist.image_bytes"] = float64(w.image)
	return nil
}
