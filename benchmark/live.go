package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"era"
	"era/internal/server"
	"era/internal/workload"
)

const (
	liveDocs        = 256
	liveDocBytes    = 1 << 10
	liveAppendDocs  = 4  // documents per append request
	liveDeleteEvery = 4  // a delete follows every fourth append
	liveMemtable    = 32 // MemtableMaxDocs: 256 docs make 8 seals
	liveMaxTiers    = 4  // MaxTiers: 8 seals make 2 compactions
	liveProbes      = 2048
	// The reader makes this many queries per mutation, closed loop, about
	// half of what it could. Reading flat out until the writer finishes, it
	// made 300 to 400 per mutation depending on which of the two the machine
	// slowed more, and the reads were most of the objects allocated.
	liveReadsPerStep = 160
)

// mutation is one step of the write script: an append of docs[first:first+n]
// or (n == 0) the delete of the document appended as docs[first].
type mutation struct{ first, n int }

// liveWorkload: writes beside reads. Every trial feeds the same script to a
// fresh WAL-backed LiveIndex behind engine + HTTP while one reader queries
// it, then closes, reopens and checks what survived.
type liveWorkload struct {
	dir      string
	corp     *corpus
	script   []mutation
	survive  [][]byte // surviving documents, in append order
	dead     [][]byte
	want     *expect              // oracle counts over the survivors' concatenation
	rebuilt  []int                // the same counts from a fresh era.BuildCorpus of the survivors
	userSyms int                  // symbols appended by one script
	liveSyms int                  // symbols surviving it
	trials   int                  // directories used so far
	idxBytes int64                // live directory bytes after the last trial's reopen
	beside   map[string][]float64 // per-layer figures the HTTP trials yield, one entry per trial
}

func (w *liveWorkload) config(dir string) *era.LiveConfig {
	return &era.LiveConfig{Dir: dir, MemtableMaxDocs: liveMemtable, MaxTiers: liveMaxTiers}
}

func (w *liveWorkload) setUp(e *env) error {
	corp, err := genCorpus(workload.Protein, liveDocs*liveDocBytes, liveDocs, e.seed)
	if err != nil {
		return err
	}
	w.corp, w.dir, w.beside = corp, e.dir, make(map[string][]float64)

	// The script: 64 appends of 4 documents; after every fourth, the delete
	// of a random document that is already in and still alive.
	r := rand.New(rand.NewSource(e.seed))
	deleted := make([]bool, liveDocs)
	for first := 0; first < liveDocs; first += liveAppendDocs {
		w.script = append(w.script, mutation{first, liveAppendDocs})
		w.userSyms += liveAppendDocs * liveDocBytes
		if (first/liveAppendDocs+1)%liveDeleteEvery == 0 {
			victim := r.Intn(first + liveAppendDocs)
			for deleted[victim] {
				victim = (victim + 1) % (first + liveAppendDocs)
			}
			deleted[victim] = true
			w.script = append(w.script, mutation{victim, 0})
		}
	}
	var rest []byte
	for i, d := range corp.docs {
		if deleted[i] {
			w.dead = append(w.dead, d)
			continue
		}
		w.survive = append(w.survive, d)
		rest = append(rest, d...)
	}
	w.liveSyms = len(rest)

	orc, err := newOracle(rest)
	if err != nil {
		return err
	}
	w.want = orc.expect(genUniverse(corp.data, e.seed)[:liveProbes])
	ref, err := era.BuildCorpus(w.survive, nil)
	if err != nil {
		return err
	}
	w.rebuilt = make([]int, liveProbes)
	for i, p := range w.want.universe {
		w.rebuilt[i] = ref.Count(p)
	}
	return ref.Close()
}

func (w *liveWorkload) tearDown() {}

func appendBody(docs [][]byte) []byte {
	b := []byte(`{"docs":[`)
	for i, d := range docs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, d...)
		b = append(b, '"')
	}
	return append(b, "]}"...)
}

// checkSurvivors counts the ways q differs from the oracle: every acked and
// undeleted document present, every deleted one as rare as the oracle says,
// and every probe count equal to both the suffix array's and the rebuilt
// index's.
func (w *liveWorkload) checkSurvivors(q era.Queryable) (checked, failed int64) {
	if q.NumDocs() != len(w.survive) {
		failed++
	}
	for _, d := range w.survive {
		if !q.Contains(d) {
			failed++
		}
	}
	for _, d := range w.dead {
		if q.Count(d) != w.want.o.count(d) {
			failed++
		}
	}
	for i, p := range w.want.universe {
		if got := q.Count(p); got != int(w.want.counts[i]) || got != w.rebuilt[i] {
			failed++
		}
	}
	return int64(1 + len(w.survive) + len(w.dead) + liveProbes), failed
}

func (w *liveWorkload) trial(_ time.Duration, _ bool, spans *spanLog) (res trialResult) {
	dir := filepath.Join(w.dir, "live-"+strconv.Itoa(w.trials))
	w.trials++
	defer os.RemoveAll(dir)
	fail := func(err error) trialResult {
		res.err = fmt.Errorf("live: %w", err)
		return res
	}

	lx, err := era.NewLive(corpusName, w.config(dir))
	if err != nil {
		return fail(err)
	}
	engine := server.NewEngine(engineCache)
	if err := engine.Load(lx); err != nil {
		lx.Close()
		return fail(err)
	}
	n, err := serveEngine(engine, 0)
	if err != nil {
		return fail(err)
	}
	docsURL := n.srv.URL + "/v1/indexes/" + corpusName + "/docs"

	var (
		wg       sync.WaitGroup
		readLat  samples
		readFail int64
		writeErr error
		// Every acked mutation grants the reader its next queries. The index
		// infers its alphabet from what it holds and refuses protein
		// patterns until the first documents are in, so none before that.
		grant = make(chan struct{}, len(w.script)*liveReadsPerStep)
	)
	wr, rd := newConn(), newConn()
	defer wr.close()
	defer rd.close()
	m := startMeter()
	wg.Add(2)
	go func() { // the writer
		defer wg.Done()
		defer close(grant)
		ids := make([]uint64, liveDocs)
		for i, step := range w.script {
			method, url, body, op := http.MethodPost, docsURL, appendBody(w.corp.docs[step.first:step.first+step.n]), "append"
			if step.n == 0 {
				method, url, body, op = http.MethodDelete, docsURL+"/"+strconv.FormatUint(ids[step.first], 10), nil, "delete"
			}
			t0 := time.Now()
			status, err := wr.do(method, url, body)
			t1 := time.Now()
			res.lat = append(res.lat, t1.Sub(t0).Nanoseconds())
			res.ops++
			if spans != nil {
				spans.add("live", op, int32(i), 0, t0, t1)
			}
			if err != nil || status != http.StatusOK {
				writeErr = fmt.Errorf("%s %s: status %d, %v: %s", method, url, status, err, wr.resp.Bytes())
				return
			}
			if step.n > 0 {
				var ack struct {
					IDs []uint64 `json:"ids"`
				}
				if err := json.Unmarshal(wr.resp.Bytes(), &ack); err != nil || len(ack.IDs) != step.n {
					writeErr = fmt.Errorf("append ack %q: %v", wr.resp.Bytes(), err)
					return
				}
				copy(ids[step.first:], ack.IDs)
			}
			for range liveReadsPerStep {
				grant <- struct{}{}
			}
		}
	}()
	go func() { // the reader: closed loop, as far as the writer has granted
		defer wg.Done()
		var body []byte
		i := 0
		for range grant {
			body = append(body[:0], `{"index":"`+corpusName+`",`...)
			body = append(appendOp(body, call{kind: opCount, pat: uint32(i % liveProbes)}, w.want.universe), '}')
			t0 := time.Now()
			status, err := rd.do(http.MethodPost, n.srv.URL+"/v1/query", body)
			readLat = append(readLat, time.Since(t0).Nanoseconds())
			i++
			if err != nil || status != http.StatusOK {
				readFail++
			}
		}
	}()
	wg.Wait()
	res.usage = m.stop()
	n.close() // closes the engine, which closes (and seals) the live index
	if writeErr != nil {
		return fail(writeErr)
	}
	p := readLat.pctUS(50, 99)
	for name, v := range map[string]float64{
		"live.write_docs_s": liveDocs / res.wall.Seconds(),
		"live.read_p50_us":  p[0],
		"live.read_p99_us":  p[1],
	} {
		w.beside[name] = append(w.beside[name], v)
	}

	// Close + reopen: recovery from the manifest, tiers and WAL alone.
	re, err := era.NewLive(corpusName, w.config(dir))
	if err != nil {
		return fail(err)
	}
	checked, failed := w.checkSurvivors(re)
	re.Close()
	res.checked, res.failed = int64(len(readLat))+checked, readFail+failed
	if w.idxBytes, err = dirBytes(dir); err != nil {
		return fail(err)
	}
	return res
}

func (w *liveWorkload) tail() (float64, bool) { return 90, true }

func (w *liveWorkload) indexBytesPerSym() float64 {
	return float64(w.idxBytes) / float64(w.liveSyms)
}

// layers replays the script by direct calls, with no HTTP and no reader, so
// the counts repeat: each append is classed by what it triggered (nothing,
// a seal, a compaction), bytes written are read from /proc/self/io, and the
// reopened index answers the probe counts for the live.op_ns rung.
func (w *liveWorkload) layers(spans *spanLog, out map[string]float64) error {
	dir := filepath.Join(w.dir, "live-direct")
	defer os.RemoveAll(dir)
	lx, err := era.NewLive(corpusName, w.config(dir))
	if err != nil {
		return err
	}
	defer func() { lx.Close() }()
	written0, err := ioWritten()
	if err != nil {
		return err
	}
	var plain, seal, compact []float64
	ids := make([]uint64, liveDocs)
	for i, step := range w.script {
		before := lx.Stats()
		t0 := time.Now()
		if step.n == 0 {
			_, err = lx.Delete(ids[step.first])
		} else {
			var got []uint64
			got, err = lx.Append(w.corp.docs[step.first : step.first+step.n])
			copy(ids[step.first:], got)
		}
		t1 := time.Now()
		if err != nil {
			return err
		}
		after, ms, op := lx.Stats(), t1.Sub(t0).Seconds()*1e3, "append"
		switch {
		case step.n == 0:
			op = "delete"
		case after.Compactions > before.Compactions:
			compact, op = append(compact, ms), "append+compact"
		case after.Seals > before.Seals:
			seal, op = append(seal, ms), "append+seal"
		default:
			plain = append(plain, ms)
		}
		spans.add("live", op, int32(i), 0, t0, t1)
	}
	st := lx.Stats()
	written, err := ioWritten()
	if err != nil {
		return err
	}
	out["live.append_ms"] = median(plain)
	out["live.seal_ms"] = median(seal)
	out["live.compact_ms"] = median(compact)
	out["live.mutation_pause_ms"] = st.MutationPause.Seconds() * 1e3
	out["live.seals"] = float64(st.Seals)
	out["live.compactions"] = float64(st.Compactions)
	out["live.write_amp"] = float64(written-written0) / float64(w.userSyms)

	if err := lx.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	if lx, err = era.NewLive(corpusName, w.config(dir)); err != nil {
		return err
	}
	t1 := time.Now()
	spans.add("live", "reopen", 0, 0, t0, t1)
	out["live.reopen_ms"] = t1.Sub(t0).Seconds() * 1e3
	if _, failed := w.checkSurvivors(lx); failed > 0 {
		return fmt.Errorf("live: %d checks failed after the direct pass", failed)
	}
	var ns []float64
	for i, p := range w.want.universe {
		t0 := time.Now()
		lx.Count(p)
		t1 := time.Now()
		spans.add("live", "count", int32(i), 0, t0, t1)
		ns = append(ns, float64(t1.Sub(t0).Nanoseconds()))
	}
	out["live.op_ns"] = median(ns)

	// The read side and docs/s, from the HTTP trials.
	for name, v := range w.beside {
		out[name] = median(v)
	}
	return nil
}
