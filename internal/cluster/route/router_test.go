package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"era"
	"era/internal/server"
	"era/internal/workload"
)

// routedCluster is the differential harness: one monolithic reference
// server over the whole corpus, and a routed deployment — every shard
// loaded on every replica (the ring decides which owners are actually
// queried), each replica fronted by a FaultProxy so the tests can inject
// network failures between router and replica.
type routedCluster struct {
	t       *testing.T
	docs    [][]byte
	concat  []byte // global content, no terminator
	bounds  []int  // interior shard junction offsets
	numDocs int

	mono    *httptest.Server
	engines []*server.Engine // the replicas' own
	proxies []*FaultProxy
	fronts  []string
	rt      *Router
	routed  *httptest.Server

	// deadShard, when set, names a shard no replica answers for: a request
	// addressing it is dropped behind every fault proxy, so exactly that
	// shard is down whatever the ring placed where.
	deadShard atomic.Pointer[string]
}

// killable drops the requests that address the cluster's dead shard.
func (tc *routedCluster) killable(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead := tc.deadShard.Load(); dead != nil {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			if strings.Contains(r.URL.Path, "/"+*dead+"/") || bytes.Contains(body, []byte(`"`+*dead+`"`)) {
				panic(http.ErrAbortHandler)
			}
		}
		next.ServeHTTP(w, r)
	})
}

// routedTestDocs builds a deterministic corpus whose adjacent documents
// share content, so junction-crossing matches exist.
func routedTestDocs(t *testing.T, nDocs int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := workload.MustGenerate(workload.DNA, 4000, seed)
	data = data[:len(data)-1]
	docs := make([][]byte, nDocs)
	off := 0
	for i := range docs {
		n := 1 + rng.Intn(len(data)/nDocs*2)
		if off+n > len(data) {
			n = len(data) - off
		}
		if n <= 0 {
			off, n = 0, 1+rng.Intn(64)
		}
		docs[i] = data[off : off+n]
		off += n
	}
	return docs
}

func newRoutedCluster(t *testing.T, shards, replicas int, tweak func(cfg *RouterConfig)) *routedCluster {
	t.Helper()
	return newPlacedCluster(t, shards, replicas, tweak, nil)
}

// newPlacedCluster is newRoutedCluster with a say in which replica loads
// which shard: holds(fronts, r, shard) false leaves the shard off the replica
// behind fronts[r] (nil loads every shard everywhere).
func newPlacedCluster(t *testing.T, shards, replicas int, tweak func(cfg *RouterConfig), holds func(fronts []string, r int, shard string) bool) *routedCluster {
	t.Helper()
	quiet := log.New(io.Discard, "", 0)
	tc := &routedCluster{t: t, docs: routedTestDocs(t, 24, 11)}
	tc.concat = bytes.Join(tc.docs, nil)
	tc.numDocs = len(tc.docs)

	mono, err := era.BuildCorpus(tc.docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	mono.SetName("corpus")
	monoEng := server.NewEngine(64)
	if err := monoEng.Load(mono); err != nil {
		t.Fatal(err)
	}
	tc.mono = httptest.NewServer(server.NewHandlerOpts(monoEng, server.Options{ErrLog: quiet}))
	t.Cleanup(tc.mono.Close)

	sx, err := era.BuildShardedCorpus(tc.docs, &era.ShardConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	shardIdx := make([]*era.Index, sx.NumShards())
	off := 0
	for i := range shardIdx {
		sh, _ := sx.Shard(i)
		sh.SetName(fmt.Sprintf("corpus~%d", i))
		shardIdx[i] = sh
		if i < sx.NumShards()-1 {
			off += sh.Len() - 1
			tc.bounds = append(tc.bounds, off)
		}
	}

	for r := 0; r < replicas; r++ {
		eng := server.NewEngine(64)
		backend := httptest.NewServer(tc.killable(server.NewHandlerOpts(eng, server.Options{ErrLog: quiet})))
		t.Cleanup(backend.Close)
		proxy := NewFaultProxy(backend.URL)
		front := httptest.NewServer(proxy)
		t.Cleanup(front.Close)
		tc.engines = append(tc.engines, eng)
		tc.proxies = append(tc.proxies, proxy)
		tc.fronts = append(tc.fronts, front.URL)
	}
	for r, eng := range tc.engines {
		for _, sh := range shardIdx {
			if holds != nil && !holds(tc.fronts, r, sh.Name()) {
				continue
			}
			if err := eng.Load(sh); err != nil {
				t.Fatal(err)
			}
		}
	}

	cfg := RouterConfig{
		Replicas:       tc.fronts,
		Corpus:         "corpus",
		Replication:    2,
		Timeout:        10 * time.Second,
		AttemptTimeout: 300 * time.Millisecond,
		Retries:        2,
		Backoff:        Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond, Rand: func() float64 { return 0.5 }},
		ErrLog:         quiet,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	tc.rt = rt
	tc.routed = httptest.NewServer(rt.Handler())
	t.Cleanup(tc.routed.Close)
	return tc
}

func postRaw(t *testing.T, base, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, b
}

// check sends one request to both deployments and requires identical status
// — and, on success, byte-identical bodies. Every routed request must also
// finish within the client deadline plus at most one attempt budget.
func (tc *routedCluster) check(t *testing.T, path string, req any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rs, rb := postRaw(t, tc.routed.URL, path, body)
	elapsed := time.Since(start)
	ms, mb := postRaw(t, tc.mono.URL, path, body)
	if rs != ms {
		t.Errorf("%s %s: routed status %d (%s), mono status %d (%s)", path, body, rs, rb, ms, mb)
		return
	}
	if rs == http.StatusOK && !bytes.Equal(rb, mb) {
		t.Errorf("%s %s:\n  routed %s\n  mono   %s", path, body, rb, mb)
	}
	if limit := tc.rt.cfg.Timeout + tc.rt.cfg.AttemptTimeout; elapsed > limit {
		t.Errorf("%s %s: took %v, more than deadline %v plus one attempt budget", path, body, elapsed, limit)
	}
}

type routedCheck struct {
	path string
	req  any // server.QueryRequest, or server.BatchRequest on /v1/batch
}

func qreq(op server.QueryOp) server.QueryRequest {
	return server.QueryRequest{Index: "corpus", QueryOp: op}
}

func breq(ops ...server.QueryOp) server.BatchRequest {
	return server.BatchRequest{Index: "corpus", Ops: ops}
}

// faultBatch is the /v1/batch case run under every fault, against a dead
// shard and under hedging: a junction-crossing count, capped occurrences, a
// membership op after an analytics op (sub-batch and client positions
// differ), one analytics op.
func (tc *routedCluster) faultBatch() server.BatchRequest {
	b := tc.bounds[0]
	return breq(
		server.QueryOp{Op: "count", Pattern: string(tc.concat[b-4 : b+4])},
		server.QueryOp{Op: "occurrences", Pattern: string(tc.concat[10:12]), Max: 3},
		server.QueryOp{Op: "docfreq", Patterns: []string{string(tc.concat[100:110])}},
		server.QueryOp{Op: "contains", Pattern: string(tc.concat[100:110])},
	)
}

// membershipChecks exercises present, absent, junction-crossing, empty and
// terminator-containing patterns through /v1/query.
func (tc *routedCluster) membershipChecks() []routedCheck {
	present := string(tc.concat[100:110])
	short := string(tc.concat[10:12])
	absent := "ACGTACGTACGTACGTACGTAA"
	tail := string(tc.concat[len(tc.concat)-3:]) + "$"
	var out []routedCheck
	pats := []string{present, absent, short, "$", "$A", tail}
	for _, b := range tc.bounds {
		pats = append(pats, string(tc.concat[b-4:b+4]), string(tc.concat[b-1:b+1]))
	}
	for _, p := range pats {
		out = append(out,
			routedCheck{"/v1/query", qreq(server.QueryOp{Op: "contains", Pattern: p})},
			routedCheck{"/v1/query", qreq(server.QueryOp{Op: "count", Pattern: p})},
			routedCheck{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: p})},
		)
	}
	out = append(out,
		routedCheck{"/v1/query", qreq(server.QueryOp{Op: "count"})},                                    // empty pattern
		routedCheck{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Max: 5})},                      // empty pattern, capped
		routedCheck{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: short, Max: 7})},      // capped
		routedCheck{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: present, Max: 1000})}, // cap above count
	)
	return out
}

// analyticsChecks exercises all five analytics ops through /v1/analytics.
func (tc *routedCluster) analyticsChecks() []routedCheck {
	present := tc.concat[100:110]
	mutated := append([]byte(nil), present...)
	if mutated[4] == 'A' {
		mutated[4] = 'C'
	} else {
		mutated[4] = 'A'
	}
	crossing := string(tc.concat[tc.bounds[0]-4 : tc.bounds[0]+4])
	return []routedCheck{
		{"/v1/analytics", qreq(server.QueryOp{Op: "topk", K: 5, MinLen: 4})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "topk", K: 3, MinLen: 8})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lrs"})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 0, DocB: 1})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 0, DocB: tc.numDocs - 1})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 3, DocB: 3})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "docfreq", Patterns: []string{string(present), crossing, "ACGTACGTACGTACGTACGTAA"}})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "mismatch", Pattern: string(mutated), K: 1})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "mismatch", Pattern: string(mutated), K: 2, Max: 4})},
	}
}

// faultChecks is the representative subset run under every injected fault:
// at least one op of every kind, junction-crossing membership included.
func (tc *routedCluster) faultChecks() []routedCheck {
	b := tc.bounds[0]
	return []routedCheck{
		{"/v1/query", qreq(server.QueryOp{Op: "contains", Pattern: string(tc.concat[100:110])})},
		{"/v1/query", qreq(server.QueryOp{Op: "count", Pattern: string(tc.concat[b-4 : b+4])})},
		{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: string(tc.concat[b-2 : b+2])})},
		{"/v1/query", qreq(server.QueryOp{Op: "count"})},
		{"/v1/query", qreq(server.QueryOp{Op: "count", Pattern: "$"})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "topk", K: 5, MinLen: 4})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lrs"})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 0, DocB: tc.numDocs - 1})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "docfreq", Patterns: []string{string(tc.concat[100:110])}})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "mismatch", Pattern: string(tc.concat[50:58]), K: 1})},
		{"/v1/batch", tc.faultBatch()},
		// An empty or '$' pattern anywhere fails the batch, as on the mono server.
		{"/v1/batch", breq(server.QueryOp{Op: "contains", Pattern: "A"}, server.QueryOp{Op: "count"})},
		{"/v1/batch", breq(server.QueryOp{Op: "count", Pattern: "$"}, server.QueryOp{Op: "contains", Pattern: "A"})},
	}
}

// readmitAll clears fault injection and walks every replica back to healthy
// so scenarios do not leak ejections into each other.
func (tc *routedCluster) readmitAll() {
	for i, p := range tc.proxies {
		p.Set(FaultNone, 0)
		for k := 0; k < tc.rt.healthy.OKThreshold; k++ {
			tc.rt.healthy.Report(tc.fronts[i], true)
		}
	}
}

// TestRoutedDifferential is the tentpole acceptance test: with replication
// factor 2, the routed deployment answers membership and all five analytics
// ops byte-identically to the monolithic index — on a healthy cluster and
// with the fault proxy injecting every failure mode against each replica in
// turn. Error statuses agree too, and no request overruns the client
// deadline by more than one attempt budget.
func TestRoutedDifferential(t *testing.T) {
	tc := newRoutedCluster(t, 3, 3, nil)

	t.Run("healthy", func(t *testing.T) {
		for _, c := range append(tc.membershipChecks(), tc.analyticsChecks()...) {
			tc.check(t, c.path, c.req)
		}
		// A batch mixing membership and analytics ops in one request.
		tc.check(t, "/v1/batch", server.BatchRequest{Index: "corpus", Ops: []server.QueryOp{
			{Op: "contains", Pattern: string(tc.concat[100:110])},
			{Op: "count", Pattern: string(tc.concat[tc.bounds[0]-3 : tc.bounds[0]+3])},
			{Op: "occurrences", Pattern: string(tc.concat[10:12]), Max: 3},
			{Op: "topk", K: 3, MinLen: 4},
			{Op: "lrs"},
		}})
		// Client errors must agree on status (bodies may differ in spelling):
		// bad analytics params, membership op on the analytics endpoint,
		// unknown op, unknown index.
		tc.check(t, "/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 0, DocB: tc.numDocs}))
		tc.check(t, "/v1/analytics", qreq(server.QueryOp{Op: "topk", K: 0, MinLen: 4}))
		tc.check(t, "/v1/analytics", qreq(server.QueryOp{Op: "count", Pattern: "A"}))
		tc.check(t, "/v1/query", qreq(server.QueryOp{Op: "frobnicate"}))
		tc.check(t, "/v1/query", server.QueryRequest{Index: "nope", QueryOp: server.QueryOp{Op: "contains", Pattern: "A"}})
		tc.check(t, "/v1/batch", server.BatchRequest{Index: "corpus"})
	})

	// A replica that is nobody's primary owner legitimately sees no traffic
	// while the cluster is healthy; only primaries must prove the fault
	// actually fired.
	primary := map[int]bool{}
	for _, owners := range tc.rt.Placement() {
		for i, f := range tc.fronts {
			if owners[0] == f {
				primary[i] = true
			}
		}
	}
	modes := []FaultMode{FaultDrop, FaultDelay, Fault500, FaultTruncate, FaultPartialJSON}
	for _, mode := range modes {
		for r := range tc.proxies {
			t.Run(fmt.Sprintf("%v-replica%d", mode, r), func(t *testing.T) {
				tc.proxies[r].Delay = 600 * time.Millisecond // past AttemptTimeout: forces the retry path
				tc.proxies[r].Set(mode, -1)
				defer tc.readmitAll()
				for _, c := range tc.faultChecks() {
					tc.check(t, c.path, c.req)
				}
				if mode != FaultDelay && primary[r] && tc.proxies[r].Hits() == 0 {
					t.Errorf("fault proxy %d fronts a primary owner but was never hit under %v", r, mode)
				}
			})
		}
	}
}

// TestRoutedPartialAndStrict kills every replica of one shard and pins the
// degradation contract: the default router answers 200 with "partial": true
// for every op kind — within the deadline, never a hang — and a strict
// router refuses with 503.
func TestRoutedPartialAndStrict(t *testing.T) {
	tc := newRoutedCluster(t, 3, 3, nil)
	strict, err := NewRouter(RouterConfig{
		Replicas:       tc.fronts,
		Corpus:         "corpus",
		Replication:    2,
		Timeout:        10 * time.Second,
		AttemptTimeout: 300 * time.Millisecond,
		Retries:        1,
		Backoff:        Backoff{Base: time.Millisecond, Cap: 2 * time.Millisecond, Rand: func() float64 { return 0.5 }},
		Strict:         true,
		ErrLog:         log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := strict.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	strictFront := httptest.NewServer(strict.Handler())
	defer strictFront.Close()

	// Kill shard corpus~0: every owner's proxy drops every request.
	owners := tc.rt.Placement()["corpus~0"]
	if len(owners) != 2 {
		t.Fatalf("corpus~0 has %d owners, want 2", len(owners))
	}
	frontIdx := map[string]int{}
	for i, f := range tc.fronts {
		frontIdx[f] = i
	}
	for _, o := range owners {
		tc.proxies[frontIdx[o]].Set(FaultDrop, -1)
	}
	defer tc.readmitAll()

	checks := []routedCheck{
		{"/v1/query", qreq(server.QueryOp{Op: "contains", Pattern: string(tc.concat[100:110])})},
		{"/v1/query", qreq(server.QueryOp{Op: "count", Pattern: string(tc.concat[100:110])})},
		{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: string(tc.concat[10:12])})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "topk", K: 5, MinLen: 4})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lrs"})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 0, DocB: tc.numDocs - 1})}, // doc 0 lives in the dead shard
		{"/v1/analytics", qreq(server.QueryOp{Op: "docfreq", Patterns: []string{string(tc.concat[100:110])}})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "mismatch", Pattern: string(tc.concat[50:58]), K: 1})},
		{"/v1/batch", tc.faultBatch()},
	}
	for _, c := range checks {
		body, _ := json.Marshal(c.req)
		start := time.Now()
		status, resp := postRaw(t, tc.routed.URL, c.path, body)
		elapsed := time.Since(start)
		if limit := tc.rt.cfg.Timeout + tc.rt.cfg.AttemptTimeout; elapsed > limit {
			t.Errorf("%s %s: degraded answer took %v (> %v)", c.path, body, elapsed, limit)
		}
		if status != http.StatusOK {
			t.Errorf("%s %s: degraded status %d (%s), want 200 partial", c.path, body, status, resp)
			continue
		}
		type flagged struct {
			Partial bool `json:"partial"`
		}
		var out struct {
			flagged
			Results []flagged `json:"results"`
		}
		if err := json.Unmarshal(resp, &out); err != nil {
			t.Fatalf("%s %s: %v in %s", c.path, body, err, resp)
		}
		answers := []flagged{out.flagged}
		if br, ok := c.req.(server.BatchRequest); ok {
			// The shard is down for the whole sub-batch: every op is partial.
			if answers = out.Results; len(answers) != len(br.Ops) {
				t.Errorf("%s %s: %d results for %d ops: %s", c.path, body, len(answers), len(br.Ops), resp)
			}
		}
		for _, a := range answers {
			if !a.Partial {
				t.Errorf("%s %s: dead shard but partial not set: %s", c.path, body, resp)
				break
			}
		}

		// Strict mode refuses the same requests outright.
		sStatus, sResp := postRaw(t, strictFront.URL, c.path, body)
		if sStatus != http.StatusServiceUnavailable {
			t.Errorf("%s %s: strict router answered %d (%s), want 503", c.path, body, sStatus, sResp)
		}
	}

	if tc.rt.partials.Load() == 0 {
		t.Error("router served degraded answers but the partials counter is zero")
	}
	if tc.rt.shardDown.Load() == 0 {
		t.Error("router exhausted a shard's replicas but the shard_down counter is zero")
	}

	// What a degraded lrs / topk says: the answer over the shards that are
	// left — one run with shard 0 down, two with shard 1 down — in corpus
	// offsets, with no window and no occurrence across the hole.
	tc.readmitAll()
	edges := append(append([]int{0}, tc.bounds...), len(tc.concat))
	for dead := 0; dead <= 1; dead++ {
		name := fmt.Sprintf("corpus~%d", dead)
		tc.deadShard.Store(&name)
		var runs []era.Run
		for i := 0; i+1 < len(edges); i++ {
			if i != dead {
				runs = append(runs, era.Run{Off: edges[i], Data: tc.concat[edges[i]:edges[i+1]]})
			}
		}
		for _, op := range []era.Op{{Kind: era.OpLongestRepeat}, {Kind: era.OpTopK, K: 5, MinLen: 4}, {Kind: era.OpTopK, K: 3, MinLen: 8}} {
			want := server.ToWire(op, naiveOverRuns(op, runs))
			want.Partial = true
			body, _ := json.Marshal(qreq(server.QueryOp{Op: op.Kind.String(), K: op.K, MinLen: op.MinLen}))
			status, resp := postRaw(t, tc.routed.URL, "/v1/analytics", body)
			var got server.QueryResponse
			if err := json.Unmarshal(resp, &got); status != http.StatusOK || err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s down, %s: status %d, err %v\n got %s\nwant %+v", name, body, status, err, resp, want)
			}
		}
		tc.deadShard.Store(nil)
		tc.readmitAll()
	}
}

// naiveOverRuns is the window-counting oracle for a degraded lrs or topk:
// every window and every occurrence lies inside one run, offsets are the
// corpus's.
func naiveOverRuns(op era.Op, runs []era.Run) era.Result {
	windows := func(m int) map[string][]int {
		at := map[string][]int{}
		for _, r := range runs {
			for i := 0; i+m <= len(r.Data); i++ {
				at[string(r.Data[i:i+m])] = append(at[string(r.Data[i:i+m])], r.Off+i)
			}
		}
		return at
	}
	if op.Kind == era.OpTopK {
		var top []era.TopEntry
		for w, at := range windows(op.MinLen) {
			top = append(top, era.TopEntry{Pattern: []byte(w), Count: len(at)})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].Count != top[j].Count {
				return top[i].Count > top[j].Count
			}
			return bytes.Compare(top[i].Pattern, top[j].Pattern) < 0
		})
		top = top[:min(len(top), op.K)]
		return era.Result{Found: len(top) > 0, Top: top, Count: len(top)}
	}
	// A repeat of length m has one of length m−1 inside it: search the length.
	repeats := func(m int) (best string, at []int) {
		for w, p := range windows(m) {
			if len(p) > 1 && (best == "" || w < best) {
				best, at = w, p
			}
		}
		return best, at
	}
	lo, hi := 0, 0 // a repeat of length lo exists, none longer than hi
	for _, r := range runs {
		hi = max(hi, len(r.Data))
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if w, _ := repeats(mid); w != "" {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo == 0 {
		return era.Result{}
	}
	w, at := repeats(lo)
	return era.Result{Found: true, Pattern: []byte(w), Occurrences: at, Count: len(at)}
}

// TestRoutedHedge pins tail-latency bounding: with the primary owner of
// every shard slowed far past the hedge delay, hedged first attempts win on
// the secondary long before the primary's attempt deadline.
func TestRoutedHedge(t *testing.T) {
	tc := newRoutedCluster(t, 3, 3, func(cfg *RouterConfig) {
		cfg.HedgeDelay = 20 * time.Millisecond
		cfg.AttemptTimeout = 3 * time.Second
		cfg.Timeout = 10 * time.Second
	})
	// Slow one replica: every shard it fronts as primary now hedges.
	slow := -1
	for _, owners := range tc.rt.Placement() {
		for i, f := range tc.fronts {
			if owners[0] == f {
				slow = i
			}
		}
	}
	if slow < 0 {
		t.Fatal("no replica is primary for any shard")
	}
	tc.proxies[slow].Delay = 2 * time.Second
	tc.proxies[slow].Set(FaultDelay, -1)
	defer tc.readmitAll()

	body, _ := json.Marshal(qreq(server.QueryOp{Op: "count", Pattern: string(tc.concat[100:110])}))
	start := time.Now()
	status, resp := postRaw(t, tc.routed.URL, "/v1/query", body)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("hedged query answered %d: %s", status, resp)
	}
	// The hedge fires at 20ms; anything near the 2s injected delay means the
	// router waited for the slow primary instead of racing the secondary.
	if elapsed > 1500*time.Millisecond {
		t.Errorf("hedged query took %v, want well under the 2s injected delay", elapsed)
	}
	if tc.rt.hedges.Load() == 0 {
		t.Error("slow primary never triggered a hedge")
	}
	ms, mb := postRaw(t, tc.mono.URL, "/v1/query", body)
	if ms != http.StatusOK || !bytes.Equal(resp, mb) {
		t.Errorf("hedged answer diverged: routed %s, mono %s", resp, mb)
	}

	// A sub-batch hedges like any other sub-request.
	hedges := tc.rt.hedges.Load()
	start = time.Now()
	tc.check(t, "/v1/batch", tc.faultBatch())
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Errorf("hedged batch took %v, want well under the 2s injected delay", elapsed)
	}
	if tc.rt.hedges.Load() == hedges {
		t.Error("slow primary never triggered a hedge on the batch")
	}
}

// TestRoutedHedgeLoserKeepsPrimaryHealthy pins that the losing arm of a hedge
// — canceled by the router itself once the secondary answered — reports no
// outcome: a slow but alive primary must stay healthy and keep being hedged,
// not be ejected after FailThreshold canceled attempts (after which
// candidates orders it last and hedging silently stops).
func TestRoutedHedgeLoserKeepsPrimaryHealthy(t *testing.T) {
	tc := newRoutedCluster(t, 3, 3, func(cfg *RouterConfig) {
		cfg.HedgeDelay = 20 * time.Millisecond
		cfg.AttemptTimeout = 3 * time.Second
	})
	primary := tc.rt.Placement()["corpus~0"][0]
	for i, f := range tc.fronts {
		if f == primary {
			tc.proxies[i].Delay = 300 * time.Millisecond
			tc.proxies[i].Set(FaultDelay, -1)
		}
	}
	defer tc.readmitAll()

	req := qreq(server.QueryOp{Op: "count", Pattern: string(tc.concat[100:110])})
	for call := 1; call <= 6; call++ {
		hedges := tc.rt.hedges.Load()
		tc.check(t, "/v1/query", req)
		if tc.rt.hedges.Load() == hedges {
			t.Fatalf("call %d: slow primary was not hedged", call)
		}
	}
	if !tc.rt.Health().Healthy(primary) {
		t.Error("slow primary ejected by its own canceled hedge losers")
	}
}

// TestRoutedHedgeFastFailDegrades pins the hedge drain when the primary
// fails BEFORE the hedge timer and the secondary fails too: the first
// select already consumed the primary's outcome, so the drain loop must
// only wait for the secondary — a regression here stalls the request until
// the full deadline instead of degrading promptly.
func TestRoutedHedgeFastFailDegrades(t *testing.T) {
	tc := newRoutedCluster(t, 3, 3, func(cfg *RouterConfig) {
		cfg.HedgeDelay = 20 * time.Millisecond
		cfg.Timeout = 10 * time.Second
	})
	owners := tc.rt.Placement()["corpus~0"]
	if len(owners) != 2 {
		t.Fatalf("corpus~0 has %d owners, want 2", len(owners))
	}
	frontIdx := map[string]int{}
	for i, f := range tc.fronts {
		frontIdx[f] = i
	}
	// FaultDrop aborts instantly, so the hedged first attempt sees the
	// primary fail fast and the secondary fail fast right after it.
	for _, o := range owners {
		tc.proxies[frontIdx[o]].Set(FaultDrop, -1)
	}
	defer tc.readmitAll()

	body, _ := json.Marshal(qreq(server.QueryOp{Op: "count", Pattern: string(tc.concat[100:110])}))
	start := time.Now()
	status, resp := postRaw(t, tc.routed.URL, "/v1/query", body)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("fast-fail hedged query answered %d: %s", status, resp)
	}
	var out struct {
		Partial bool `json:"partial"`
	}
	if err := json.Unmarshal(resp, &out); err != nil || !out.Partial {
		t.Errorf("dead shard not flagged partial: %s (err %v)", resp, err)
	}
	// Both owners abort in microseconds; retries and backoff are
	// milliseconds. Anything near the 10s deadline means the drain loop
	// waited for an outcome that was already consumed.
	if elapsed > 3*time.Second {
		t.Errorf("fast-fail hedged degradation took %v, want prompt", elapsed)
	}
}

// TestRoutedMetricsAndProbes covers the router's own surface: /healthz,
// /readyz before and after topology load, /v1/indexes, and /metricz.
func TestRoutedMetricsAndProbes(t *testing.T) {
	tc := newRoutedCluster(t, 2, 2, nil)

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(tc.routed.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	if s, _ := get("/healthz"); s != http.StatusOK {
		t.Errorf("/healthz = %d", s)
	}
	if s, _ := get("/readyz"); s != http.StatusOK {
		t.Errorf("/readyz with topology and healthy replicas = %d", s)
	}
	var listing struct {
		Indexes []struct {
			Name      string `json:"name"`
			Symbols   int    `json:"symbols"`
			Documents int    `json:"documents"`
			Shards    int    `json:"shards"`
		} `json:"indexes"`
	}
	_, b := get("/v1/indexes")
	if err := json.Unmarshal(b, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Indexes) != 1 || listing.Indexes[0].Name != "corpus" ||
		listing.Indexes[0].Symbols != len(tc.concat)+1 ||
		listing.Indexes[0].Documents != tc.numDocs || listing.Indexes[0].Shards != 2 {
		t.Errorf("routed listing wrong: %s", b)
	}

	// The replicas' census endpoint went with the routed topk that used it.
	if s, b := postRaw(t, tc.fronts[0], "/v1/internal/prefixcounts", []byte(`{"index":"corpus~0","min_len":4}`)); s != http.StatusNotFound {
		t.Errorf("POST /v1/internal/prefixcounts on a replica = %d (%s), want 404", s, b)
	}

	tc.check(t, "/v1/query", qreq(server.QueryOp{Op: "contains", Pattern: string(tc.concat[5:12])}))
	var metrics struct {
		Requests    int64           `json:"requests"`
		Replication int             `json:"replication"`
		Shards      int             `json:"shards"`
		Replicas    map[string]bool `json:"replicas"`
	}
	_, b = get("/metricz")
	if err := json.Unmarshal(b, &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Requests < 1 || metrics.Replication != 2 || metrics.Shards != 2 || len(metrics.Replicas) != 2 {
		t.Errorf("metricz wrong: %s", b)
	}

	// A router with no reachable replicas never gets a topology: not ready,
	// and queries answer 503 rather than hanging.
	orphan, err := NewRouter(RouterConfig{
		Replicas: []string{"http://127.0.0.1:1"},
		Timeout:  time.Second, AttemptTimeout: 100 * time.Millisecond, Retries: -1,
		ErrLog: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := orphan.Refresh(context.Background()); err == nil {
		t.Fatal("Refresh with no reachable replicas succeeded")
	}
	front := httptest.NewServer(orphan.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("orphan /readyz = %d, want 503", resp.StatusCode)
	}
	status, _ := postRaw(t, front.URL, "/v1/query", []byte(`{"index":"corpus","op":"contains","pattern":"A"}`))
	if status != http.StatusServiceUnavailable {
		t.Errorf("query with no topology = %d, want 503", status)
	}
}

// TestRoutedRefreshUnionsListings pins discovery over replicas that load only
// what the ring places on them (the deployment `era shard -splitdir` is for):
// no single replica lists the whole family, the union does, and the routed
// answers are the monolithic ones. Two replicas describing one shard name
// differently is an error, never a merge.
func TestRoutedRefreshUnionsListings(t *testing.T) {
	owners := func(fronts []string, shard string) []string {
		ring := NewRing(64)
		for _, f := range fronts {
			ring.Add(f)
		}
		return ring.Owners(shard, 2)
	}
	tc := newPlacedCluster(t, 3, 3, func(cfg *RouterConfig) {
		// Discovery used to stop at the first replica that answered: put one
		// that lacks a shard first.
		fronts := cfg.Replicas
		lacks := slices.IndexFunc(fronts, func(f string) bool { return !slices.Contains(owners(fronts, "corpus~0"), f) })
		cfg.Replicas = append([]string{fronts[lacks]}, slices.Delete(slices.Clone(fronts), lacks, lacks+1)...)
	}, func(fronts []string, r int, shard string) bool {
		return slices.Contains(owners(fronts, shard), fronts[r])
	})
	for shard, placed := range tc.rt.Placement() {
		if want := owners(tc.fronts, shard); !reflect.DeepEqual(placed, want) {
			t.Errorf("%s placed on %v, the ring says %v", shard, placed, want)
		}
	}
	for _, c := range tc.faultChecks() {
		tc.check(t, c.path, c.req)
	}

	// The one replica the ring keeps corpus~1 off loads another build of it.
	other, err := era.BuildCorpus(tc.docs[:3], nil)
	if err != nil {
		t.Fatal(err)
	}
	other.SetName("corpus~1")
	stray := slices.IndexFunc(tc.fronts, func(f string) bool { return !slices.Contains(owners(tc.fronts, "corpus~1"), f) })
	if err := tc.engines[stray].Load(other); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.rt.Refresh(ctx); err == nil || !strings.Contains(err.Error(), "disagree on shard corpus~1") {
		t.Errorf("Refresh over two builds of corpus~1 = %v, want a disagreement error", err)
	}
	tc.check(t, "/v1/query", qreq(server.QueryOp{Op: "count", Pattern: string(tc.concat[100:110])})) // the old topology still serves

	// An owner that answers without a shard is no candidate for it; with no
	// owner left the family is not servable.
	tc.engines[stray].Unload("corpus~1")
	for i, f := range tc.fronts {
		if i != stray && f == owners(tc.fronts, "corpus~1")[0] {
			tc.engines[i].Unload("corpus~1")
		}
	}
	if err := tc.rt.Refresh(ctx); err != nil {
		t.Fatalf("Refresh with corpus~1 on one of its two owners: %v", err)
	}
	if placed, want := tc.rt.Placement()["corpus~1"], owners(tc.fronts, "corpus~1")[1:]; !reflect.DeepEqual(placed, want) {
		t.Errorf("corpus~1 placed on %v with only %v holding it", placed, want)
	}
	tc.check(t, "/v1/analytics", qreq(server.QueryOp{Op: "lrs"}))
}

// replicaRequests arms every proxy with a zero delay — a fault that changes
// nothing but is counted — and returns a func reading the number of HTTP
// requests the replicas have received since.
func (tc *routedCluster) replicaRequests() func() int {
	total := func() (n int) {
		for _, p := range tc.proxies {
			n += p.Hits()
		}
		return n
	}
	for _, p := range tc.proxies {
		p.Delay = 0
		p.Set(FaultDelay, -1)
	}
	base := total()
	return func() int { return total() - base }
}

// TestRoutedBatchSubBatches pins the batch execution model: the membership
// ops of a request reach each shard as one sub-request per chunk, not one
// per op, and a request cut into several chunks still answers byte-equal to
// the monolithic server.
func TestRoutedBatchSubBatches(t *testing.T) {
	const shards = 3
	tc := newRoutedCluster(t, shards, 3, nil)
	defer tc.readmitAll()
	requests := tc.replicaRequests()

	// Patterns up to MaxPattern long: junction windows come from the
	// refresh-time prefetch, so sub-batches are the only replica traffic.
	rng := rand.New(rand.NewSource(5))
	kinds := []string{"contains", "count", "occurrences"}
	ops := make([]server.QueryOp, maxChunkOps+88)
	for i := range ops {
		at, m := rng.Intn(len(tc.concat)-40), 2+rng.Intn(30)
		if i%5 == 0 {
			at = tc.bounds[i%len(tc.bounds)] - 1 - rng.Intn(m-1) // crosses a junction
		}
		ops[i] = server.QueryOp{Op: kinds[i%3], Pattern: string(tc.concat[at : at+m]), Max: i % 4}
	}

	tc.check(t, "/v1/batch", breq(ops[:32]...))
	if got := requests(); got != shards {
		t.Errorf("a 32-op batch over %d shards made %d replica requests, want one per shard", shards, got)
	}
	tc.check(t, "/v1/batch", breq(ops...))
	if got := requests(); got != 3*shards {
		t.Errorf("a %d-op batch (chunk budget %d ops) made %d replica requests, want two per shard", len(ops), maxChunkOps, got-shards)
	}

	// The byte budget cuts too: patterns this long also take the live
	// junction fetch.
	long := make([]server.QueryOp, 96)
	for i := range long {
		at := rng.Intn(len(tc.concat) - 3000)
		long[i] = server.QueryOp{Op: kinds[i%3], Pattern: string(tc.concat[at : at+3000]), Max: 2}
	}
	var buf bytes.Buffer
	planned := make([]era.Op, len(long))
	for i := range long {
		var err error
		if planned[i], err = long[i].Plan(); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := encodeChunk(&buf, planned); err != nil || n == 0 || n == len(planned) || buf.Len() > maxChunkBytes {
		t.Fatalf("encodeChunk took %d of %d ops in %d bytes (err %v), want a cut under %d bytes", n, len(planned), buf.Len(), err, maxChunkBytes)
	}
	tc.check(t, "/v1/batch", breq(long...))
}

// TestRoutedBatchErrorPosition pins the position a batch error names: the
// client's op index, as on the monolithic server — whether the router caught
// the op itself (unknown op, analytics parameters) or a replica rejected it
// inside a sub-batch, where analytics ops ahead of it shift its position.
func TestRoutedBatchErrorPosition(t *testing.T) {
	tc := newRoutedCluster(t, 3, 3, nil)
	ok := server.QueryOp{Op: "count", Pattern: "AC"}
	lrs := server.QueryOp{Op: "lrs"}
	cases := []struct {
		name string
		ops  []server.QueryOp
		want int
	}{
		{"unknown op", []server.QueryOp{ok, lrs, {Op: "frobnicate"}, ok}, 2},
		{"negative max", []server.QueryOp{lrs, ok, {Op: "occurrences", Pattern: "AC", Max: -1}}, 2},
		{"empty pattern in a sub-batch", []server.QueryOp{lrs, ok, lrs, {Op: "count"}, ok}, 3},
		{"byte outside the alphabet", []server.QueryOp{lrs, ok, {Op: "contains", Pattern: "AxC"}}, 2},
		{"sub-batch of one", []server.QueryOp{lrs, lrs, {Op: "count"}}, 2},
		{"analytics parameters", []server.QueryOp{ok, {Op: "topk", K: 0, MinLen: 4}, ok}, 1},
		{"first op", []server.QueryOp{{Op: "count"}, ok}, 0},
	}
	marker := regexp.MustCompile(`op (\d+): `)
	for _, c := range cases {
		body, err := json.Marshal(breq(c.ops...))
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []struct{ name, url string }{{"routed", tc.routed.URL}, {"mono", tc.mono.URL}} {
			status, resp := postRaw(t, side.url, "/v1/batch", body)
			if status != http.StatusBadRequest {
				t.Errorf("%s: %s answered %d (%s), want 400", c.name, side.name, status, resp)
				continue
			}
			m := marker.FindSubmatch(resp)
			if m == nil || string(m[1]) != fmt.Sprint(c.want) {
				t.Errorf("%s: %s error %s does not name op %d", c.name, side.name, resp, c.want)
			}
		}
	}
}
