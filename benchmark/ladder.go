package main

import (
	"cmp"
	"fmt"
	"time"

	"era"
	"era/internal/server"
	"era/internal/suffixtree"
)

// The membership ladder replays one slice of client 0's op stream, serially,
// through every rung at and below the workload's own entry layer. Each call
// is a span; the span of the same request one rung down is its child, so a
// layer's self time is a subtraction. Two chains share the bottom:
//
//	suffixtree ← index ← server.engine (cache off)
//	server.engine.cached ← server.http ← route   (caches on, as deployed)
//
// shard is a side rung: the in-process fan-out the router's is compared with.
const (
	ladderOps     = 20000 // calls replayed through the in-process rungs
	ladderHTTPOps = 4000  // calls replayed through the HTTP rungs (a routed batch32 costs milliseconds)
)

// engineMember drives a server.Engine directly, below its HTTP handler.
type engineMember struct{ e *server.Engine }

func (m engineMember) one(kind era.OpKind, p []byte) era.Result {
	r, _ := m.e.Query(corpusName, era.Op{Kind: kind, Pattern: p}) // an error leaves the zero Result, which verify rejects
	return r
}
func (m engineMember) Contains(p []byte) bool { return m.one(era.OpContains, p).Found }
func (m engineMember) Count(p []byte) int     { return m.one(era.OpCount, p).Count }
func (m engineMember) Batch(ops []era.Op) []era.Result {
	rs, _ := m.e.Batch(corpusName, ops)
	return rs
}

// treeCaller drives the bare FlatTree, which has no batch or capped
// occurrences call: occurrences decodes every leaf and is checked by count.
type treeCaller struct {
	t     *suffixtree.FlatTree
	want  *expect
	found bool
	count int
}

func (tc *treeCaller) call(_ int, c call) {
	p := tc.want.universe[c.pat]
	switch c.kind {
	case opContains:
		tc.found = tc.t.Contains(p)
	case opCount:
		tc.count = tc.t.Count(p)
		tc.found = tc.count > 0
	case opOccurrences:
		tc.count = len(tc.t.Occurrences(p))
		tc.found = tc.count > 0
	}
}

func (tc *treeCaller) verify(_ int, c call, _ bool) bool {
	if c.kind == opOccurrences {
		c.kind = opCount
	}
	return tc.want.check(c, tc.found, tc.count, nil, false)
}

type rung struct {
	layer       string
	cr          caller
	child       string // layer of the rung below in the same chain
	http        bool   // over HTTP: a shorter slice, and no unrecorded replay first (the servers are warm)
	noBatch     bool
	opMetric    string
	opPerNS     float64 // metric units per nanosecond
	batchMetric string
}

// ladderTop names the servers of the workload whose ladder this is; nil
// fields end the ladder below them.
type ladderTop struct {
	mono *node
	cl   *cluster
	sx   *era.ShardedIndex
}

func runLadder(f *memberFixture, top ladderTop, spans *spanLog, out map[string]float64) error {
	one := f.clients[:1]
	ft, err := buildFlatTree(f.corp)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	rungs := []rung{
		{layer: "suffixtree", cr: &treeCaller{t: ft, want: f.want}, noBatch: true, opMetric: "suffixtree.op_ns", opPerNS: 1},
		{layer: "index", cr: newLibCaller(f.mono, f.want, one), child: "suffixtree", opMetric: "index.op_ns", opPerNS: 1, batchMetric: "index.batch32_us"},
	}
	if top.sx != nil {
		rungs = append(rungs, rung{layer: "shard", cr: newLibCaller(top.sx, f.want, one), opMetric: "shard.op_ns", opPerNS: 1, batchMetric: "shard.batch32_us"})
	}
	var cached *server.Engine
	if top.mono != nil {
		for _, cache := range []int{0, engineCache} {
			engine := server.NewEngine(cache)
			defer engine.Close()
			if _, err := engine.LoadFile(f.path); err != nil {
				return fmt.Errorf("ladder: %w", err)
			}
			r := rung{layer: "server.engine", cr: newLibCaller(engineMember{engine}, f.want, one), child: "index", opMetric: "server.engine.op_ns", opPerNS: 1}
			if cache > 0 {
				cached = engine
				r.layer, r.child, r.opMetric = "server.engine.cached", "", "server.engine.cached_op_ns"
			}
			rungs = append(rungs, r)
		}
		hc := newHTTPCaller(top.mono.srv.URL, "", f.want, one)
		defer hc.close()
		rungs = append(rungs, rung{layer: "server.http", cr: hc, child: "server.engine.cached", http: true, opMetric: "server.http.op_us", opPerNS: 1e-3, batchMetric: "server.http.batch32_us"})
	}
	if top.cl != nil {
		hc := newHTTPCaller(top.cl.front.URL, "", f.want, one)
		defer hc.close()
		rungs = append(rungs, rung{layer: "route", cr: hc, child: "server.http", http: true, opMetric: "route.op_us", opPerNS: 1e-3, batchMetric: "route.batch32_us"})
	}

	calls := f.clients[0].s.calls[:ladderOps]
	ids := make(map[string][]int32)
	for _, r := range rungs {
		n := ladderOps
		if r.http {
			n = ladderHTTPOps
		}
		replay := func(record bool) (failed int) {
			rec := make([]int32, n)
			for i, c := range calls[:n] {
				if c.kind == opBatch && r.noBatch {
					continue
				}
				t0 := time.Now()
				r.cr.call(0, c)
				t1 := time.Now()
				if !r.cr.verify(0, c, false) {
					failed++
				}
				if record {
					rec[i] = spans.add(r.layer, c.kind.String(), int32(i), 0, t0, t1)
				}
			}
			ids[r.layer] = rec
			return failed
		}
		if !r.http {
			replay(false) // warm the CPU caches and, on the cached rung, the LRU
		}
		var hits0, q0, sub0 int64
		if r.layer == "server.engine.cached" {
			st := cached.Stats()
			hits0, q0 = st.CacheHits, st.CacheHits+st.CacheMisses
		}
		if r.layer == "route" {
			sub0 = top.cl.subRequests()
		}
		if failed := replay(true); failed > 0 {
			return fmt.Errorf("ladder: %d wrong answers at rung %s", failed, r.layer)
		}
		switch r.layer {
		case "server.engine.cached":
			st := cached.Stats()
			out["server.engine.cache_hit_ratio"] = float64(st.CacheHits-hits0) / float64(st.CacheHits+st.CacheMisses-q0)
		case "route":
			ops := 0
			for _, c := range calls[:n] {
				if ops++; c.kind == opBatch {
					ops += batchSize - 1
				}
			}
			out["route.subreq_per_op"] = float64(top.cl.subRequests()-sub0) / float64(ops)
			ctr, err := top.cl.routerCounters()
			if err != nil {
				return fmt.Errorf("ladder: router /metricz: %w", err)
			}
			out["route.retries"], out["route.hedges"], out["route.partials"] = ctr["retries"], ctr["hedges"], ctr["partials"]
		}
		for i, child := range ids[r.child] {
			if i < n && child != 0 && ids[r.layer][i] != 0 {
				spans.spans[child-1].Parent = ids[r.layer][i]
			}
		}
	}

	// Rung medians, and self times along the chains.
	self := selfTimes(spans.spans)
	fmt.Printf("\nmembership ladder (median ns per single op; self = rung minus the rung below, same request)\n")
	for _, r := range rungs {
		var single, batch, selfNS []float64
		for _, id := range ids[r.layer] {
			if id == 0 {
				continue
			}
			s := spans.spans[id-1]
			if s.Op == opBatch.String() {
				batch = append(batch, float64(s.End-s.Start))
				continue
			}
			single = append(single, float64(s.End-s.Start))
			selfNS = append(selfNS, float64(self[id-1]))
		}
		out[r.opMetric] = median(single) * r.opPerNS
		if r.batchMetric != "" {
			out[r.batchMetric] = median(batch) / 1e3
		}
		fmt.Printf("  %-22s total %10.0f  self %10.0f  (below: %s)\n", r.layer, median(single), median(selfNS), cmp.Or(r.child, "-"))
	}
	return nil
}
