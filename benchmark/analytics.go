package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"era"
	"era/internal/server"
	"era/internal/workload"
)

const (
	analyticsSymbols = 128 << 10
	analyticsDocs    = 48
)

// analyticsWorkload: the heavy walks. One operation is one analytics query
// on one layer; a trial runs the five-query suite on each of the four
// layers, one client, caches off so the executors are measured and not the
// LRU.
type analyticsWorkload struct {
	corp    *corpus
	image   int64
	queries []era.Query // in analyticsOps order
	bodies  [][]byte    // the same queries as POST /v1/analytics bodies
	ref     []era.Answer
	refWire []server.QueryResponse
	mono    era.Queryable
	sx      *era.ShardedIndex
	lx      *era.LiveIndex
	cl      *cluster
	conn    *conn
	cells   map[string][]float64 // milliseconds per layer.op, one entry per trial
}

func (w *analyticsWorkload) setUp(e *env) (err error) {
	defer func() {
		if err != nil {
			w.tearDown()
		}
	}()
	if w.corp, err = genCorpus(workload.DNA, analyticsSymbols, analyticsDocs, e.seed); err != nil {
		return err
	}
	orc, err := newOracle(w.corp.data)
	if err != nil {
		return err
	}
	universe := genUniverse(w.corp.data, e.seed)
	w.queries = []era.Query{
		{Kind: era.OpTopK, K: 16, MinLen: 8},
		{Kind: era.OpLongestRepeat},
		{Kind: era.OpCommonSubstring, DocA: 0, DocB: analyticsDocs - 1},
		{Kind: era.OpDocFreq, Patterns: universe[:16]},
		{Kind: era.OpMismatch, Pattern: w.corp.data[1000:1012], K: 1},
	}
	w.cells = make(map[string][]float64)

	// Mono: built, written as v4, reopened by mmap.
	idx, err := era.BuildCorpus(w.corp.docs, &era.Config{Target: era.TargetFlat})
	if err != nil {
		return err
	}
	idx.SetName(corpusName)
	path := filepath.Join(e.dir, corpusName+".idx")
	if err = era.WriteFileV4(path, idx); err != nil {
		return err
	}
	if w.mono, err = era.OpenIndex(path); err != nil {
		return err
	}
	w.image = w.mono.MappedBytes()

	// Sharded, in process and (the same shards) behind the router.
	shardDir := filepath.Join(e.dir, "shards")
	if w.sx, err = writeShards(w.corp.docs, shardDir); err != nil {
		return err
	}
	if w.cl, err = startCluster(shardDir, 0); err != nil {
		return err
	}
	w.conn = newConn()

	// Live: the same 48 documents over 3 sealed tiers, with 2 extra
	// documents appended among them and tombstoned again.
	extra, err := genCorpus(workload.DNA, 2*len(w.corp.docs[0]), 2, e.seed+1)
	if err != nil {
		return err
	}
	all := make([][]byte, 0, analyticsDocs+2)
	all = append(append(all, w.corp.docs[:10]...), extra.docs[0])
	all = append(append(all, w.corp.docs[10:30]...), extra.docs[1])
	all = append(all, w.corp.docs[30:]...)
	third := (len(all) + 2) / 3
	if w.lx, err = era.NewLive(corpusName, &era.LiveConfig{Dir: filepath.Join(e.dir, "live"), MemtableMaxDocs: third}); err != nil {
		return err
	}
	var ids []uint64
	for len(all) > 0 {
		n := min(third, len(all))
		got, err := w.lx.Append(all[:n])
		if err != nil {
			return err
		}
		ids, all = append(ids, got...), all[n:]
	}
	if err = w.lx.Seal(); err != nil {
		return err
	}
	for _, id := range []uint64{ids[10], ids[31]} {
		if ok, err := w.lx.Delete(id); err != nil || !ok {
			return fmt.Errorf("analytics: tombstoning extra document %d: deleted=%v, %v", id, ok, err)
		}
	}
	if st := w.lx.Stats(); st.Tiers != 3 || st.DeadDocs != 2 || st.LiveDocs != analyticsDocs {
		return fmt.Errorf("analytics: live index has %d tiers, %d tombstones, %d live docs; want 3, 2, %d", st.Tiers, st.DeadDocs, st.LiveDocs, analyticsDocs)
	}

	// Reference answers from the mono index, themselves checked against the
	// suffix array: the longest repeat is as long as the LCP maximum, and
	// every top-k count is the suffix array's count.
	for i, q := range w.queries {
		ans, err := w.mono.Analytics(context.Background(), q)
		if err != nil {
			return err
		}
		w.ref = append(w.ref, ans)
		body, err := json.Marshal(server.QueryRequest{Index: corpusName, QueryOp: wireOp(q)})
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
		wire, err := json.Marshal(server.ToWire(q, ans))
		if err != nil {
			return err
		}
		w.refWire = append(w.refWire, server.QueryResponse{})
		if err = json.Unmarshal(wire, &w.refWire[i]); err != nil {
			return err
		}
	}
	if got, want := len(w.ref[1].Pattern), orc.longestRepeat(); got != want {
		return fmt.Errorf("analytics: lrs is %d symbols long, the LCP maximum is %d", got, want)
	}
	for _, top := range w.ref[0].Top {
		if want := orc.count(top.Pattern); top.Count != want {
			return fmt.Errorf("analytics: topk counts %q %d times, the suffix array %d", top.Pattern, top.Count, want)
		}
	}
	return nil
}

func wireOp(q era.Query) server.QueryOp {
	op := server.QueryOp{Op: q.Kind.String(), Pattern: string(q.Pattern), Max: q.MaxOccurrences,
		K: q.K, MinLen: q.MinLen, DocA: q.DocA, DocB: q.DocB}
	for _, p := range q.Patterns {
		op.Patterns = append(op.Patterns, string(p))
	}
	return op
}

func (w *analyticsWorkload) tearDown() {
	if w.conn != nil {
		w.conn.close()
	}
	if w.cl != nil {
		w.cl.close()
	}
	if w.lx != nil {
		w.lx.Close()
	}
	if w.mono != nil {
		w.mono.Close()
	}
}

func (w *analyticsWorkload) trial(_ time.Duration, _ bool, spans *spanLog) trialResult {
	var res trialResult
	local := []era.Queryable{w.mono, w.sx, w.lx}
	m := startMeter()
	for qi, q := range w.queries {
		for li, layer := range analyticsLayers {
			var ok bool
			t0 := time.Now()
			if li < len(local) {
				ans, err := local[li].Analytics(context.Background(), q)
				ok = err == nil && reflect.DeepEqual(ans, w.ref[qi])
			} else {
				status, err := w.conn.do(http.MethodPost, w.cl.front.URL+"/v1/analytics", w.bodies[qi])
				var got server.QueryResponse
				ok = err == nil && status == http.StatusOK &&
					json.Unmarshal(w.conn.resp.Bytes(), &got) == nil && reflect.DeepEqual(got, w.refWire[qi])
			}
			t1 := time.Now()
			res.lat = append(res.lat, t1.Sub(t0).Nanoseconds())
			cell := layer + "." + analyticsOps[qi]
			w.cells[cell] = append(w.cells[cell], t1.Sub(t0).Seconds()*1e3)
			if spans != nil {
				spans.add(layer, analyticsOps[qi], int32(qi), 0, t0, t1)
			}
			res.ops++
			if !ok {
				fmt.Fprintf(os.Stderr, "analytics: %s answered %s differently from the mono index\n", layer, analyticsOps[qi])
				res.failed++
			}
		}
	}
	res.usage = m.stop()
	return res
}

func (w *analyticsWorkload) tail() (float64, bool) { return 90, true }

func (w *analyticsWorkload) indexBytesPerSym() float64 {
	return float64(w.image) / float64(len(w.corp.data))
}

// layers reports the 20 cells the trials timed, each as its median.
func (w *analyticsWorkload) layers(_ *spanLog, out map[string]float64) error {
	for cell, ms := range w.cells {
		out[cell+"_ms"] = median(ms)
	}
	return nil
}
