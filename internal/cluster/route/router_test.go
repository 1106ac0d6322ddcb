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
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unicode/utf8"

	"era"
	"era/internal/server"
	"era/internal/workload"
)

// routedCluster is the differential harness: one monolithic reference
// server over the whole corpus, and a routed deployment — every shard
// loaded on every replica unless the test says otherwise, each replica
// fronted by a FaultProxy so the tests can inject network failures between
// router and replica.
type routedCluster struct {
	t       *testing.T
	docs    [][]byte
	concat  []byte   // global content, no terminator
	joins   []int    // interior document junction offsets in concat
	keys    [][]byte // keys[i]: shard i's lower key, the cut before it
	numDocs int

	mono    *httptest.Server
	sharded *era.ShardedIndex // the shards the replicas load, as one index
	engines []*server.Engine  // the replicas' own
	proxies []*FaultProxy
	fronts  []string
	rt      *Router
	routed  *httptest.Server

	// deadShard, when set, names a shard no replica answers for: a request
	// addressing it is dropped behind every fault proxy, so exactly that
	// shard is down whatever its placement.
	deadShard atomic.Pointer[string]
}

// killable drops the requests that address the cluster's dead shard.
func (tc *routedCluster) killable(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead := tc.deadShard.Load(); dead != nil {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			if bytes.Contains(body, []byte(`"`+*dead+`"`)) {
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

// routedTextDocs builds UTF-8 text whose words carry accents, so that shard
// keys — and the key prefixes, boundary L-mers and repeats the router asks
// the replicas about — can end inside a character.
func routedTextDocs(nDocs int, seed int64) [][]byte {
	words := strings.Fields("café cafe crème creme déjà deja élan naïve naive über uber façade facade año ano señor señora €uro — «dit» smörgåsbord ñandú")
	rng := rand.New(rand.NewSource(seed))
	docs := make([][]byte, nDocs)
	for i := range docs {
		for n := 2 + rng.Intn(30); n > 0; n-- {
			docs[i] = append(append(docs[i], words[rng.Intn(len(words))]...), '_') // a custom alphabet ranks above '$'
		}
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
	return newCorpusCluster(t, routedTestDocs(t, 24, 11), shards, replicas, tweak, holds)
}

// newCorpusCluster is newPlacedCluster over a corpus of the caller's.
func newCorpusCluster(t *testing.T, docs [][]byte, shards, replicas int, tweak func(cfg *RouterConfig), holds func(fronts []string, r int, shard string) bool) *routedCluster {
	t.Helper()
	quiet := log.New(io.Discard, "", 0)
	tc := &routedCluster{t: t, docs: docs, concat: bytes.Join(docs, nil), numDocs: len(docs)}
	off := 0
	for _, d := range docs[:len(docs)-1] {
		if off += len(d); off > 0 && off < len(tc.concat) && (len(tc.joins) == 0 || tc.joins[len(tc.joins)-1] != off) {
			tc.joins = append(tc.joins, off)
		}
	}

	mono, err := era.BuildCorpus(docs, nil)
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

	sx, err := era.BuildShardedCorpus(docs, &era.ShardConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	tc.sharded = sx
	shardIdx := make([]*era.Index, sx.NumShards())
	for i := range shardIdx {
		sh, _ := sx.Shard(i)
		sh.SetName(fmt.Sprintf("corpus~%d", i))
		shardIdx[i] = sh
		lo, _ := sh.Range()
		tc.keys = append(tc.keys, lo)
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

// keyPrefixes returns non-empty proper prefixes of the shard keys — the
// patterns whose suffixes two shards share — and the keys themselves: the
// short ones and the longest, for a periodic corpus's keys run long.
func (tc *routedCluster) keyPrefixes() []string {
	var out []string
	for _, key := range tc.keys[1:] {
		for l := 1; l <= len(key); l++ {
			if p := string(key[:l]); (l <= 4 || l >= len(key)-1) && !slices.Contains(out, p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// ownedBy returns a 10-byte pattern of the corpus whose suffixes shard i
// alone holds, or "" when there is none.
func (tc *routedCluster) ownedBy(i int) string {
	for off := 0; off+10 <= len(tc.concat); off++ {
		if first, last := era.Owners(tc.keys, tc.concat[off:off+10]); first == i && last == i {
			return string(tc.concat[off : off+10])
		}
	}
	return ""
}

// around returns the bytes of concat within r of offset at, clipped.
func (tc *routedCluster) around(at, r int) string {
	return string(tc.concat[max(at-r, 0):min(at+r, len(tc.concat))])
}

// window returns m bytes of concat from offset off, clipped to the corpus.
func (tc *routedCluster) window(off, m int) string {
	off = min(off, max(len(tc.concat)-m, 0))
	return string(tc.concat[off:min(off+m, len(tc.concat))])
}

func getRaw(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, b
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
// finish within the client deadline plus at most one attempt budget. The
// request's patterns travel as Text, so one that ends inside a character
// arrives as it is.
func (tc *routedCluster) check(t *testing.T, path string, req any) {
	t.Helper()
	body, err := json.Marshal(wire(req))
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

// wire spells a QueryRequest or BatchRequest with Text patterns.
func wire(req any) any {
	op := func(q server.QueryOp) server.WireOp {
		w := server.WireOp{Op: q.Op, Pattern: server.Text(q.Pattern), Max: q.Max, K: q.K, MinLen: q.MinLen, DocA: q.DocA, DocB: q.DocB}
		for _, p := range q.Patterns {
			w.Patterns = append(w.Patterns, server.Text(p))
		}
		return w
	}
	switch r := req.(type) {
	case server.QueryRequest:
		return server.WireQuery{Index: r.Index, WireOp: op(r.QueryOp)}
	case server.BatchRequest:
		b := server.WireBatch{Index: r.Index}
		for _, q := range r.Ops {
			b.Ops = append(b.Ops, op(q))
		}
		return b
	}
	return req
}

// absent returns a pattern of corpus bytes that the corpus does not hold.
func (tc *routedCluster) absent() string {
	return strings.Repeat(string(tc.concat[:1]), len(tc.concat))
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
// shard and under hedging: a junction-crossing count, a count of a proper
// prefix of a key (two owners), capped occurrences, a membership op after an
// analytics op (sub-batch and client positions differ), one analytics op.
func (tc *routedCluster) faultBatch() server.BatchRequest {
	return breq(
		server.QueryOp{Op: "count", Pattern: tc.around(tc.joins[0], 4)},
		server.QueryOp{Op: "count", Pattern: tc.keyPrefixes()[0]},
		server.QueryOp{Op: "occurrences", Pattern: tc.window(10, 2), Max: 3},
		server.QueryOp{Op: "docfreq", Patterns: []string{tc.window(100, 10)}},
		server.QueryOp{Op: "contains", Pattern: tc.window(100, 10)},
	)
}

// membershipChecks exercises present, absent, junction-crossing, key-prefix,
// empty and terminator-containing patterns through /v1/query.
func (tc *routedCluster) membershipChecks() []routedCheck {
	present := tc.window(100, 10)
	short := tc.window(10, 2)
	absent := tc.absent()
	tail := string(tc.concat[len(tc.concat)-3:]) + "$"
	var out []routedCheck
	pats := append([]string{present, absent, short, "$", "$A", tail}, tc.keyPrefixes()...)
	for _, b := range tc.joins {
		pats = append(pats, tc.around(b, 4), tc.around(b, 1))
	}
	for _, p := range pats {
		out = append(out,
			routedCheck{"/v1/query", qreq(server.QueryOp{Op: "contains", Pattern: p})},
			routedCheck{"/v1/query", qreq(server.QueryOp{Op: "count", Pattern: p})},
			routedCheck{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: p})},
			routedCheck{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: p, Max: 3})},
		)
	}
	out = append(out,
		routedCheck{"/v1/query", qreq(server.QueryOp{Op: "count"})},                                    // empty pattern
		routedCheck{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Max: 5})},                      // empty pattern, capped
		routedCheck{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: present, Max: 1000})}, // cap above count
	)
	return out
}

// analyticsChecks exercises all five analytics ops through /v1/analytics,
// aimed at the cuts: topk at lengths below the longest key (whose boundary
// L-mers two shards share), docfreq and mismatch over key prefixes.
func (tc *routedCluster) analyticsChecks() []routedCheck {
	present := []byte(tc.window(100, 10))
	mutated := append([]byte(nil), present...)
	for _, c := range tc.concat { // another byte of the corpus
		if c != present[4] {
			mutated[4] = c
			break
		}
	}
	patterns := append([]string{string(present), tc.absent()}, tc.keyPrefixes()...)
	if len(tc.joins) > 0 {
		patterns = append(patterns, tc.around(tc.joins[0], 4))
	}
	out := []routedCheck{
		{"/v1/analytics", qreq(server.QueryOp{Op: "lrs"})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 0, DocB: 1})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 0, DocB: tc.numDocs - 1})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: tc.numDocs - 1, DocB: tc.numDocs / 2})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "docfreq", Patterns: patterns})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "mismatch", Pattern: string(mutated), K: 1})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "mismatch", Pattern: string(mutated), K: 2, Max: 4})},
	}
	lengths := []int{1, 2, 3, 4, 6, 8}
	for _, key := range tc.keys[1:] {
		lengths = append(lengths, len(key)-1, len(key), len(key)+1)
	}
	slices.Sort(lengths)
	for _, l := range slices.Compact(lengths) {
		if l < 1 {
			continue
		}
		out = append(out,
			routedCheck{"/v1/analytics", qreq(server.QueryOp{Op: "topk", K: 3, MinLen: l})},
			routedCheck{"/v1/analytics", qreq(server.QueryOp{Op: "topk", K: 64, MinLen: l})},
		)
	}
	for _, p := range tc.keyPrefixes() {
		out = append(out, routedCheck{"/v1/analytics", qreq(server.QueryOp{Op: "mismatch", Pattern: p, K: 1, Max: 5})})
	}
	return out
}

// faultChecks is the representative subset run under every injected fault:
// at least one op of every kind, junction-crossing and key-prefix membership
// included.
func (tc *routedCluster) faultChecks() []routedCheck {
	b := tc.joins[0]
	return []routedCheck{
		{"/v1/query", qreq(server.QueryOp{Op: "contains", Pattern: tc.window(100, 10)})},
		{"/v1/query", qreq(server.QueryOp{Op: "count", Pattern: tc.around(b, 4)})},
		{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: tc.around(b, 2)})},
		{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: tc.keyPrefixes()[0], Max: 9})},
		{"/v1/query", qreq(server.QueryOp{Op: "count"})},
		{"/v1/query", qreq(server.QueryOp{Op: "count", Pattern: "$"})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "topk", K: 5, MinLen: 4})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lrs"})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 0, DocB: tc.numDocs - 1})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "docfreq", Patterns: []string{tc.window(100, 10), tc.keyPrefixes()[0]}})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "mismatch", Pattern: tc.window(50, 8), K: 1})},
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
// ops byte-identically to the monolithic index — over K ∈ {1, 2, 3, 5, 8}
// prefix-range shards of corpora whose cuts are awkward (UTF-8 text among
// them, whose keys end inside a character), on a healthy cluster, and with
// the fault proxy injecting every failure mode against each replica in turn.
// Error statuses agree too, and no request overruns the client deadline by
// more than one attempt budget.
func TestRoutedDifferential(t *testing.T) {
	dna := workload.MustGenerate(workload.DNA, 1200, 3)
	dna = dna[:len(dna)-1]
	midChar := false // a text key ends inside a character
	for _, c := range []struct {
		name string
		docs [][]byte
	}{
		{"docs", routedTestDocs(t, 24, 11)},
		{"one-doc", [][]byte{dna}}, // no document cut could split it
		{"periodic", [][]byte{bytes.Repeat([]byte("ACGTTGA"), 60), bytes.Repeat([]byte("AC"), 100)}},
		{"empty-doc", [][]byte{dna[:500], nil, dna[500:]}},
		{"utf8", routedTextDocs(24, 5)},
	} {
		for _, k := range []int{1, 2, 3, 5, 8} { // 5 and 8 exceed DNA's σ
			t.Run(fmt.Sprintf("%s-%d", c.name, k), func(t *testing.T) {
				tc := newCorpusCluster(t, c.docs, k, 2, nil, nil)
				for _, key := range tc.keys {
					midChar = midChar || !utf8.Valid(key)
				}
				for _, c := range append(tc.membershipChecks(), tc.analyticsChecks()...) {
					tc.check(t, c.path, c.req)
				}
			})
		}
	}
	if !midChar {
		t.Error("no shard key of the UTF-8 corpus ends inside a character")
	}

	tc := newRoutedCluster(t, 3, 3, nil)
	t.Run("healthy", func(t *testing.T) {
		// A batch mixing membership and analytics ops in one request.
		tc.check(t, "/v1/batch", server.BatchRequest{Index: "corpus", Ops: []server.QueryOp{
			{Op: "contains", Pattern: tc.window(100, 10)},
			{Op: "count", Pattern: tc.around(tc.joins[0], 3)},
			{Op: "count", Pattern: tc.keyPrefixes()[0]},
			{Op: "occurrences", Pattern: tc.window(10, 2), Max: 3},
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

// TestRoutedPartialAndStrict kills both replicas of one shard at a time and
// pins the degradation contract: an op that a dead shard owns — a
// membership op or docfreq whose patterns' suffixes the shard holds, and
// topk, lrs and mismatch, which ask every shard — answers 200 with
// "partial": true within the deadline, never a hang, and a strict router
// refuses it with 503; every other op, lcs included (it falls over to a live
// shard), answers byte-equal to the monolithic server on both routers. A
// degraded lrs / topk is the answer over the suffixes the live shards hold.
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

	// One pattern owned by each shard alone, and a proper key prefix, owned
	// by two.
	owned := func(p string) (int, int) { return era.Owners(tc.keys, []byte(p)) }
	var pats []string
	for i := range tc.keys {
		if p := tc.ownedBy(i); p != "" {
			pats = append(pats, p)
		}
	}
	if len(pats) != len(tc.keys) {
		t.Fatalf("found single-owner patterns for %d of %d shards", len(pats), len(tc.keys))
	}
	pats = append(pats, tc.keyPrefixes()[0])
	var checks []routedCheck
	var batch []server.QueryOp
	for _, p := range pats {
		checks = append(checks,
			routedCheck{"/v1/query", qreq(server.QueryOp{Op: "contains", Pattern: p})},
			routedCheck{"/v1/query", qreq(server.QueryOp{Op: "count", Pattern: p})},
			routedCheck{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: p, Max: 4})},
			routedCheck{"/v1/analytics", qreq(server.QueryOp{Op: "docfreq", Patterns: []string{p}})},
		)
		batch = append(batch, server.QueryOp{Op: "count", Pattern: p}, server.QueryOp{Op: "docfreq", Patterns: []string{p}})
	}
	checks = append(checks,
		routedCheck{"/v1/analytics", qreq(server.QueryOp{Op: "topk", K: 5, MinLen: 4})},
		routedCheck{"/v1/analytics", qreq(server.QueryOp{Op: "lrs"})},
		routedCheck{"/v1/analytics", qreq(server.QueryOp{Op: "mismatch", Pattern: tc.window(50, 8), K: 1})},
		routedCheck{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 0, DocB: tc.numDocs - 1})},
		routedCheck{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 1, DocB: 2})},
		routedCheck{"/v1/batch", breq(append(batch, server.QueryOp{Op: "lcs", DocA: 0, DocB: 1})...)},
	)
	// partialIf says whether an op degrades with the dead shards down.
	partialIf := func(op server.QueryOp, dead []bool) bool {
		switch op.Op {
		case "lcs": // any live shard answers it
			return !slices.Contains(dead, false)
		case "topk", "lrs", "mismatch":
			return true
		}
		pats := op.Patterns
		if len(pats) == 0 {
			pats = []string{op.Pattern}
		}
		for _, p := range pats {
			if first, last := owned(p); slices.Contains(dead[first:last+1], true) {
				return true
			}
		}
		return false
	}
	frontIdx := map[string]int{}
	for i, f := range tc.fronts {
		frontIdx[f] = i
	}
	type flagged struct {
		Partial bool `json:"partial"`
	}
	for kill := range tc.keys {
		owners := tc.rt.Placement()[fmt.Sprintf("corpus~%d", kill)]
		if len(owners) != 2 {
			t.Fatalf("corpus~%d has %d owners, want 2", kill, len(owners))
		}
		for _, o := range owners {
			tc.proxies[frontIdx[o]].Set(FaultDrop, -1)
		}
		// Every shard whose two replicas are these two is down with it.
		dead := make([]bool, len(tc.keys))
		for i := range dead {
			placed := tc.rt.Placement()[fmt.Sprintf("corpus~%d", i)]
			dead[i] = !slices.ContainsFunc(placed, func(o string) bool { return !slices.Contains(owners, o) })
		}
		for _, c := range checks {
			body, _ := json.Marshal(c.req)
			var ops []server.QueryOp
			if br, ok := c.req.(server.BatchRequest); ok {
				ops = br.Ops
			} else {
				ops = []server.QueryOp{c.req.(server.QueryRequest).QueryOp}
			}
			want := make([]bool, len(ops))
			anyPartial := false
			for i, op := range ops {
				want[i] = partialIf(op, dead)
				anyPartial = anyPartial || want[i]
			}
			if !anyPartial {
				tc.check(t, c.path, c.req)
				if s, b := postRaw(t, strictFront.URL, c.path, body); s != http.StatusOK {
					t.Errorf("shard %d down, %s %s: strict router answered %d (%s) for ops the shard does not own", kill, c.path, body, s, b)
				}
				continue
			}
			start := time.Now()
			status, resp := postRaw(t, tc.routed.URL, c.path, body)
			if limit := tc.rt.cfg.Timeout + tc.rt.cfg.AttemptTimeout; time.Since(start) > limit {
				t.Errorf("%s %s: degraded answer took %v (> %v)", c.path, body, time.Since(start), limit)
			}
			if status != http.StatusOK {
				t.Errorf("shard %d down, %s %s: degraded status %d (%s), want 200 partial", kill, c.path, body, status, resp)
				continue
			}
			var out struct {
				flagged
				Results []flagged `json:"results"`
			}
			if err := json.Unmarshal(resp, &out); err != nil {
				t.Fatalf("%s %s: %v in %s", c.path, body, err, resp)
			}
			got := []flagged{out.flagged}
			if len(ops) > 1 || c.path == "/v1/batch" {
				got = out.Results
			}
			if len(got) != len(ops) {
				t.Fatalf("%s %s: %d results for %d ops: %s", c.path, body, len(got), len(ops), resp)
			}
			for i := range ops {
				if got[i].Partial != want[i] {
					t.Errorf("shard %d down (dead %v), %s op %d %+v: partial %v, want %v", kill, dead, c.path, i, ops[i], got[i].Partial, want[i])
				}
			}
			// Strict mode refuses the same requests outright.
			if s, b := postRaw(t, strictFront.URL, c.path, body); s != http.StatusServiceUnavailable {
				t.Errorf("shard %d down, %s %s: strict router answered %d (%s), want 503", kill, c.path, body, s, b)
			}
		}
		tc.readmitAll()
		for _, o := range owners {
			for k := 0; k < strict.healthy.OKThreshold; k++ {
				strict.healthy.Report(o, true)
			}
		}
	}
	if tc.rt.partials.Load() == 0 {
		t.Error("router served degraded answers but the partials counter is zero")
	}
	if tc.rt.shardDown.Load() == 0 {
		t.Error("router exhausted a shard's replicas but the shard_down counter is zero")
	}

	// What a degraded lrs / topk says, with exactly one shard down.
	for dead := -1; dead < len(tc.keys); dead++ {
		if dead >= 0 {
			name := fmt.Sprintf("corpus~%d", dead)
			tc.deadShard.Store(&name)
		}
		for _, op := range []era.Op{{Kind: era.OpLongestRepeat}, {Kind: era.OpTopK, K: 5, MinLen: 2}, {Kind: era.OpTopK, K: 3, MinLen: 8}} {
			want := server.ToWire(op, naiveOverLive(op, tc.concat, tc.keys, dead))
			want.Partial = dead >= 0
			body, _ := json.Marshal(qreq(server.QueryOp{Op: op.Kind.String(), K: op.K, MinLen: op.MinLen}))
			status, resp := postRaw(t, tc.routed.URL, "/v1/analytics", body)
			var got server.QueryResponse
			if err := json.Unmarshal(resp, &got); status != http.StatusOK || err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("shard %d down, %s: status %d, err %v\n got %s\nwant %+v", dead, body, status, err, resp, want)
			}
		}
		tc.deadShard.Store(nil)
		tc.readmitAll()
	}
}

// naiveOverLive is the oracle for lrs and topk over the suffixes of every
// shard but dead (-1: every shard; keys are the shards' lower keys). topk
// counts the L-mers those suffixes begin with; lrs is the longest prefix two
// of them adjacent in the suffix order share — adjacent with no dead range
// between them, the smallest first among equals — and its occurrences are
// the live suffixes that begin with it.
func naiveOverLive(op era.Op, concat []byte, keys [][]byte, dead int) era.Result {
	text := append(slices.Clone(concat), '$')
	var live []int // the live suffixes, in suffix order
	order := make([]int, len(text))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return bytes.Compare(text[order[a]:], text[order[b]:]) < 0 })
	var adjacent []bool // adjacent[j]: live[j-1] and live[j] are neighbours in the whole order
	prev := -2
	for r, s := range order {
		if owner, _ := era.Owners(keys, text[s:]); owner != dead {
			live = append(live, s)
			adjacent = append(adjacent, prev == r-1)
			prev = r
		}
	}
	if op.Kind == era.OpTopK {
		counts := map[string]int{}
		for _, s := range live {
			if s+op.MinLen <= len(concat) {
				counts[string(text[s:s+op.MinLen])]++
			}
		}
		var top []era.TopEntry
		for w, n := range counts {
			top = append(top, era.TopEntry{Pattern: []byte(w), Count: n})
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
	var label []byte
	for j := 1; j < len(live); j++ {
		a, b := text[live[j-1]:], text[live[j]:]
		l := 0
		for l < len(a) && l < len(b) && a[l] == b[l] {
			l++
		}
		if adjacent[j] && l > len(label) {
			label = b[:l]
		}
	}
	if len(label) == 0 {
		return era.Result{}
	}
	var at []int
	for _, s := range live {
		if bytes.HasPrefix(text[s:], label) {
			at = append(at, s)
		}
	}
	sort.Ints(at)
	return era.Result{Found: true, Pattern: label, Occurrences: at, Count: len(at)}
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
	// Slow the primary of the shard the query asks: every shard it fronts as
	// primary now hedges.
	slow := slices.Index(tc.fronts, tc.rt.Placement()["corpus~0"][0])
	tc.proxies[slow].Delay = 2 * time.Second
	tc.proxies[slow].Set(FaultDelay, -1)
	defer tc.readmitAll()

	body, _ := json.Marshal(qreq(server.QueryOp{Op: "count", Pattern: tc.ownedBy(0)}))
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

	req := qreq(server.QueryOp{Op: "count", Pattern: tc.ownedBy(0)})
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

	body, _ := json.Marshal(qreq(server.QueryOp{Op: "count", Pattern: tc.ownedBy(0)}))
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

// TestRoutedMetricsAndProbes covers the router's surface beyond queries:
// /healthz, /readyz before and after topology load, /v1/indexes and
// /v1/indexes/{name}, the refused mutations, and /metricz.
func TestRoutedMetricsAndProbes(t *testing.T) {
	tc := newRoutedCluster(t, 2, 2, nil)

	get := func(path string) (int, []byte) { return getRaw(t, tc.routed.URL, path) }
	if s, _ := get("/healthz"); s != http.StatusOK {
		t.Errorf("/healthz = %d", s)
	}
	if s, _ := get("/readyz"); s != http.StatusOK {
		t.Errorf("/readyz with topology and healthy replicas = %d", s)
	}
	var listing server.IndexList
	_, b := get("/v1/indexes")
	if err := json.Unmarshal(b, &listing); err != nil {
		t.Fatal(err)
	}
	want := server.IndexInfo{Name: "corpus", Symbols: len(tc.concat) + 1, Documents: tc.numDocs, Alphabet: "DNA",
		AlphabetSymbols: "ACGT", TreeNodes: tc.sharded.TreeNodes(), Shards: 2}
	if len(listing.Indexes) != 1 || listing.Indexes[0] != want {
		t.Errorf("routed listing wrong: %s, want the one entry %+v", b, want)
	}
	var entry server.IndexInfo
	if s, b := get("/v1/indexes/corpus"); s != http.StatusOK || json.Unmarshal(b, &entry) != nil || entry != want {
		t.Errorf("GET /v1/indexes/corpus = %d %s, want %+v", s, b, want)
	}
	if s, b := get("/v1/indexes/corpus~0"); s != http.StatusNotFound {
		t.Errorf("GET /v1/indexes/corpus~0 on the router = %d (%s), want 404", s, b)
	}
	// A routed corpus is static shard images: mutations are refused as a
	// replica refuses them for a static index.
	if s, b := postRaw(t, tc.routed.URL, "/v1/indexes/corpus/docs", []byte(`{"docs":["ACGT"]}`)); s != http.StatusBadRequest {
		t.Errorf("POST /v1/indexes/corpus/docs on the router = %d (%s), want 400", s, b)
	}

	// The replicas' census endpoint went with the routed topk that used it.
	if s, b := postRaw(t, tc.fronts[0], "/v1/internal/prefixcounts", []byte(`{"index":"corpus~0","min_len":4}`)); s != http.StatusNotFound {
		t.Errorf("POST /v1/internal/prefixcounts on a replica = %d (%s), want 404", s, b)
	}
	// So did the byte endpoints the router fetched corpus content through.
	for _, path := range []string{"/v1/indexes/corpus~0/slice?lo=0&hi=8", "/v1/indexes/corpus~0/doc/0"} {
		if s, _ := getRaw(t, tc.fronts[0], path); s != http.StatusNotFound {
			t.Errorf("GET %s on a replica = %d, want 404", path, s)
		}
	}
	// A replica lists each shard's range and fingerprint.
	var replicaListing server.IndexList
	_, b = getRaw(t, tc.fronts[0], "/v1/indexes")
	if err := json.Unmarshal(b, &replicaListing); err != nil {
		t.Fatal(err)
	}
	for _, info := range replicaListing.Indexes {
		if len(info.Fingerprint) != 8 || (info.Range == server.KeyRange{}) {
			t.Errorf("replica lists %s without its range or fingerprint: %s", info.Name, b)
		}
	}

	tc.check(t, "/v1/query", qreq(server.QueryOp{Op: "contains", Pattern: string(tc.concat[5:12])}))
	type metricz struct {
		Ops             map[string]server.HistSnapshot `json:"ops"`
		Panics          *int64                         `json:"panics"`
		Replication     int                            `json:"replication"`
		Shards          int                            `json:"shards"`
		UnderReplicated *int                           `json:"under_replicated"`
		Replicas        map[string]bool                `json:"replicas"`
	}
	var metrics metricz
	_, b = get("/metricz")
	if err := json.Unmarshal(b, &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Ops["query"].Count < 1 || metrics.Panics == nil || *metrics.Panics != 0 ||
		metrics.Replication != 2 || metrics.Shards != 2 || len(metrics.Replicas) != 2 ||
		metrics.UnderReplicated == nil || *metrics.UnderReplicated != 0 {
		t.Errorf("metricz wrong: %s", b)
	}
	// One replica alone holding a shard leaves that shard under-replicated.
	tc.engines[1].Unload("corpus~1")
	if err := tc.rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	metrics = metricz{}
	_, b = get("/metricz")
	if err := json.Unmarshal(b, &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.UnderReplicated == nil || *metrics.UnderReplicated != 1 {
		t.Errorf("metricz with corpus~1 on one replica: %s, want under_replicated 1", b)
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

// TestRoutedListsAsShardedIndex pins one listing shape: the router's
// /v1/indexes and /v1/indexes/corpus are byte for byte a replica's that
// loaded the cluster's shards as one era.ShardedIndex named corpus.
func TestRoutedListsAsShardedIndex(t *testing.T) {
	tc := newRoutedCluster(t, 3, 2, nil)
	eng := server.NewEngine(0)
	tc.sharded.SetName("corpus")
	if err := eng.Load(tc.sharded); err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(server.NewHandler(eng))
	defer replica.Close()
	for _, path := range []string{"/v1/indexes", "/v1/indexes/corpus"} {
		rs, rb := getRaw(t, tc.routed.URL, path)
		ss, sb := getRaw(t, replica.URL, path)
		if rs != http.StatusOK || ss != http.StatusOK || !bytes.Equal(rb, sb) {
			t.Errorf("GET %s:\n  routed  %d %s\n  replica %d %s", path, rs, rb, ss, sb)
		}
	}
}

// TestRoutedRefreshUnionsListings pins discovery over replicas that each load
// some of the shards — the deployment `era shard -splitdir` is for, placed as
// the README places it: replica r loads corpus~r and corpus~(r+1)%3. No
// single replica lists the whole family, the union does, and a shard is asked
// of exactly the replicas that list it, so losing any one replica leaves every
// answer the monolithic one. Two replicas describing one shard name
// differently is an error, never a merge.
func TestRoutedRefreshUnionsListings(t *testing.T) {
	tc := newPlacedCluster(t, 3, 3, nil, func(fronts []string, r int, shard string) bool {
		return shard == fmt.Sprintf("corpus~%d", r) || shard == fmt.Sprintf("corpus~%d", (r+1)%3)
	})
	for i := range 3 {
		// Rotated to start at replica i: replica i+1 does not list corpus~i.
		shard, want := fmt.Sprintf("corpus~%d", i), []string{tc.fronts[i], tc.fronts[(i+2)%3]}
		if placed := tc.rt.Placement()[shard]; !reflect.DeepEqual(placed, want) {
			t.Errorf("%s placed on %v, want its listers %v", shard, placed, want)
		}
	}
	for r := range tc.proxies {
		t.Run(fmt.Sprintf("drop-replica%d", r), func(t *testing.T) {
			tc.proxies[r].Set(FaultDrop, -1)
			defer tc.readmitAll()
			for _, c := range tc.faultChecks() {
				tc.check(t, c.path, c.req) // byte-equal to mono: never "partial"
			}
		})
	}

	// Replica 2, which does not list corpus~1, loads another build of it: one
	// symbol differs, and nothing else /v1/indexes lists — symbols,
	// documents, alphabet, range — tells the two apart but the fingerprint.
	other := otherBuild(t, tc.docs, 3, 1)
	other.SetName("corpus~1")
	if err := tc.engines[2].Load(other); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.rt.Refresh(ctx); err == nil || !strings.Contains(err.Error(), "disagree on shard corpus~1") {
		t.Errorf("Refresh over two builds of corpus~1 = %v, want a disagreement error", err)
	}
	tc.check(t, "/v1/query", qreq(server.QueryOp{Op: "count", Pattern: string(tc.concat[100:110])})) // the old topology still serves

	// A replica that answers without a shard is never asked for it.
	tc.engines[2].Unload("corpus~1")
	tc.engines[1].Unload("corpus~1")
	if err := tc.rt.Refresh(ctx); err != nil {
		t.Fatalf("Refresh with corpus~1 on one replica: %v", err)
	}
	if placed, want := tc.rt.Placement()["corpus~1"], tc.fronts[:1]; !reflect.DeepEqual(placed, want) {
		t.Errorf("corpus~1 placed on %v with only %v holding it", placed, want)
	}
	tc.check(t, "/v1/analytics", qreq(server.QueryOp{Op: "lrs"}))
}

// TestRoutedRefreshSkipsUnreachable pins that a replica which does not answer
// Refresh is asked for nothing — no guess at what it holds — and that Refresh
// still succeeds over the others; a later Refresh it answers places it again.
func TestRoutedRefreshSkipsUnreachable(t *testing.T) {
	tc := newRoutedCluster(t, 3, 3, nil)
	full := tc.rt.Placement()
	tc.proxies[1].Set(FaultDrop, -1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.rt.Refresh(ctx); err != nil {
		t.Fatalf("Refresh with replica 1 unreachable: %v", err)
	}
	for shard, placed := range tc.rt.Placement() {
		if slices.Contains(placed, tc.fronts[1]) {
			t.Errorf("%s placed on %v, which includes the unreachable replica", shard, placed)
		}
	}
	for _, c := range tc.faultChecks() {
		tc.check(t, c.path, c.req)
	}

	tc.readmitAll()
	if err := tc.rt.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if placed := tc.rt.Placement(); !reflect.DeepEqual(placed, full) {
		t.Errorf("after readmission placement is %v, want %v", placed, full)
	}
}

// otherBuild returns shard i of a k-shard build of a corpus that differs
// from docs in one symbol and agrees with it on the shard's range, symbol
// and document counts and alphabet.
func otherBuild(t *testing.T, docs [][]byte, k, i int) *era.Index {
	t.Helper()
	shard := func(docs [][]byte) *era.Index {
		sx, err := era.BuildShardedCorpus(docs, &era.ShardConfig{Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		sh, _ := sx.Shard(i)
		return sh
	}
	want := shard(docs)
	wlo, whi := want.Range()
	last := len(docs) - 1
	for pos := len(docs[last]) - 1; pos >= 0; pos-- {
		for _, c := range []byte("ACGT") {
			if docs[last][pos] == c {
				continue
			}
			mutated := slices.Clone(docs)
			mutated[last] = slices.Clone(docs[last])
			mutated[last][pos] = c
			got := shard(mutated)
			if lo, hi := got.Range(); bytes.Equal(lo, wlo) && bytes.Equal(hi, whi) && got.Alphabet().Name() == want.Alphabet().Name() {
				return got
			}
		}
	}
	t.Fatal("no one-symbol change keeps the shard's range")
	return nil
}

// TestRoutedRefreshRefusesFamilies pins what Refresh will not serve as one
// corpus, each with the reason named: replicas that list one shard with
// different ranges, a family whose ranges leave a gap or stop short of the
// end of the suffix order, members of different corpora (custom alphabets of
// one name whose symbols differ among them), a whole image among range
// images — a family cut at document boundaries — and a listing without the
// alphabet's symbols, which leaves no alphabet to validate ops against.
// NewRouter refuses a replica URL listed twice, naming it.
func TestRoutedRefreshRefusesFamilies(t *testing.T) {
	docs := routedTestDocs(t, 24, 11)
	build := func(docs [][]byte, k int) []*era.Index {
		sx, err := era.BuildShardedCorpus(docs, &era.ShardConfig{Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]*era.Index, k)
		for i := range out {
			out[i], _ = sx.Shard(i)
			out[i].SetName(fmt.Sprintf("corpus~%d", i))
		}
		return out
	}
	three, four := build(docs, 3), build(docs, 4)
	gap := build(docs, 4)[2] // a range of the 4-shard build where the 3-shard build's second goes
	gap.SetName("corpus~1")
	shorter := build(docs[1:], 3)
	// Two corpora over custom alphabets ("custom", auto-detected) of one
	// length and document count, whose symbols differ.
	recode := func(to string) [][]byte {
		out := make([][]byte, len(docs))
		for i, d := range docs {
			out[i] = bytes.Map(func(r rune) rune { return rune(to[strings.IndexRune("ACGT", r)]) }, d)
		}
		return out
	}
	custom, otherCustom := build(recode("1234"), 3), build(recode("1235"), 3)
	whole, err := era.BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	whole.SetName("corpus~0")
	quiet := log.New(io.Discard, "", 0)
	for _, c := range []struct {
		name     string
		replicas [][]*era.Index
		twice    bool // list the first replica's URL again
		want     string
	}{
		{"ranges disagree", [][]*era.Index{three, {three[0], four[1], three[2]}}, false, "disagree on shard corpus~1"},
		{"gap", [][]*era.Index{{three[0], gap, three[2]}}, false, "not contiguous"},
		{"short of the end", [][]*era.Index{three[:2]}, false, "stops short of the end"},
		{"two corpora", [][]*era.Index{{three[0], shorter[1], shorter[2]}}, false, "not one corpus"},
		{"two custom alphabets", [][]*era.Index{{custom[0], otherCustom[1], otherCustom[2]}}, false, "not one corpus"},
		{"whole among ranges", [][]*era.Index{{whole, three[1], three[2]}}, false, "must be rebuilt"},
		{"duplicate replica", [][]*era.Index{three, three}, true, "is listed twice"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var fronts []string
			for _, loads := range c.replicas {
				eng := server.NewEngine(8)
				for _, idx := range loads {
					if err := eng.Load(idx); err != nil {
						t.Fatal(err)
					}
				}
				srv := httptest.NewServer(server.NewHandlerOpts(eng, server.Options{ErrLog: quiet}))
				defer srv.Close()
				fronts = append(fronts, srv.URL)
			}
			if c.twice {
				fronts = append(fronts, fronts[0])
			}
			rt, err := NewRouter(RouterConfig{Replicas: fronts, Corpus: "corpus", ErrLog: quiet})
			if err == nil {
				err = rt.Refresh(context.Background())
			}
			if err == nil || !strings.Contains(err.Error(), c.want) || c.twice && !strings.Contains(err.Error(), fronts[0]) {
				t.Errorf("NewRouter + Refresh = %v, want an error saying %q", err, c.want)
			}
		})
	}
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"indexes":[{"name":"corpus~0","symbols":9,"documents":1,"alphabet":"DNA"}]}`)
	}))
	defer old.Close()
	rt, err := NewRouter(RouterConfig{Replicas: []string{old.URL}, ErrLog: quiet})
	if err == nil {
		err = rt.Refresh(context.Background())
	}
	if err == nil || !strings.Contains(err.Error(), "shard family corpus lists no usable alphabet") {
		t.Errorf("Refresh over a listing without alphabet_symbols = %v, want it refused naming the family", err)
	}
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
// ops of a request reach each shard that owns one of them as one
// sub-request per chunk of the ops it owns — not one per op, and not every
// shard — and a request cut into several chunks still answers byte-equal to
// the monolithic server.
func TestRoutedBatchSubBatches(t *testing.T) {
	const shards = 3
	tc := newRoutedCluster(t, shards, 3, nil)
	defer tc.readmitAll()
	requests := tc.replicaRequests()
	// subRequests is what a batch of ops should cost: per shard, one request
	// per chunk of the ops it owns.
	subRequests := func(ops []server.QueryOp) int {
		owned := make([]int, shards)
		for _, op := range ops {
			first, last := era.Owners(tc.keys, []byte(op.Pattern))
			for s := first; s <= last; s++ {
				owned[s]++
			}
		}
		n := 0
		for _, o := range owned {
			n += (o + maxChunkOps - 1) / maxChunkOps
		}
		return n
	}

	rng := rand.New(rand.NewSource(5))
	kinds := []string{"contains", "count", "occurrences"}
	ops := make([]server.QueryOp, 4*maxChunkOps) // some shard owns more than one chunk's worth
	for i := range ops {
		at, m := rng.Intn(len(tc.concat)-40), 2+rng.Intn(30)
		if i%5 == 0 {
			at = tc.joins[i%len(tc.joins)] - 1 - rng.Intn(m-1) // crosses a junction
		}
		ops[i] = server.QueryOp{Op: kinds[i%3], Pattern: string(tc.concat[max(at, 0) : max(at, 0)+m]), Max: i % 4}
	}
	ops[7].Pattern = tc.keyPrefixes()[0] // two owners

	tc.check(t, "/v1/batch", breq(ops[:32]...))
	if got, want := requests(), subRequests(ops[:32]); got != want || want > shards {
		t.Errorf("a 32-op batch over %d shards made %d replica requests, want %d, one per shard it touches", shards, got, want)
	}
	one := slices.IndexFunc(ops, func(op server.QueryOp) bool {
		first, last := era.Owners(tc.keys, []byte(op.Pattern))
		return first == last
	})
	single := requests()
	tc.check(t, "/v1/query", qreq(ops[one]))
	if got := requests() - single; got != 1 {
		t.Errorf("a single-owner op made %d replica requests, want 1", got)
	}
	before := requests()
	tc.check(t, "/v1/batch", breq(ops...))
	if got, want := requests()-before, subRequests(ops); got != want || want <= shards {
		t.Errorf("a %d-op batch (chunk budget %d ops) made %d replica requests, want %d", len(ops), maxChunkOps, got, want)
	}

	// The byte budget cuts too.
	long := make([]server.QueryOp, 96)
	for i := range long {
		at := rng.Intn(len(tc.concat) - 3000)
		long[i] = server.QueryOp{Op: kinds[i%3], Pattern: string(tc.concat[at : at+3000]), Max: 2}
	}
	var buf bytes.Buffer
	planned := make([]era.Op, len(long))
	for i := range long {
		kind, err := era.ParseOpKind(long[i].Op)
		if err != nil {
			t.Fatal(err)
		}
		planned[i] = era.Op{Kind: kind, Pattern: []byte(long[i].Pattern), MaxOccurrences: long[i].Max}
	}
	if n, err := encodeChunk(&buf, planned); err != nil || n == 0 || n == len(planned) || buf.Len() > maxChunkBytes {
		t.Fatalf("encodeChunk took %d of %d ops in %d bytes (err %v), want a cut under %d bytes", n, len(planned), buf.Len(), err, maxChunkBytes)
	}
	tc.check(t, "/v1/batch", breq(long...))
}

// TestRoutedBatchErrorPosition pins the error a batch gets: the monolithic
// server's, byte for byte, which names the client's first invalid op at its
// head — the router validates every op as a replica does, patterns against
// the alphabet the shards list included, before any sub-request — with
// analytics ops around it, when a later op is invalid too, and in a batch of
// one op.
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
		{"batch of one op", []server.QueryOp{{Op: "count", Pattern: "AxC"}}, 0},
		{"bad pattern before bad parameters", []server.QueryOp{{Op: "contains", Pattern: "AxC"}, {Op: "topk", K: 0, MinLen: 4}}, 0},
	}
	for _, c := range cases {
		body, err := json.Marshal(breq(c.ops...))
		if err != nil {
			t.Fatal(err)
		}
		rs, rb := postRaw(t, tc.routed.URL, "/v1/batch", body)
		ms, mb := postRaw(t, tc.mono.URL, "/v1/batch", body)
		if rs != http.StatusBadRequest || ms != http.StatusBadRequest {
			t.Errorf("%s: routed answered %d (%s), mono %d (%s), want 400 from both", c.name, rs, rb, ms, mb)
			continue
		}
		if !bytes.Equal(rb, mb) {
			t.Errorf("%s: error bodies differ:\n  routed %s\n  mono   %s", c.name, rb, mb)
		}
		if head := fmt.Sprintf(`{"error":"op %d: `, c.want); !bytes.HasPrefix(mb, []byte(head)) {
			t.Errorf("%s: error %s does not name op %d at its head", c.name, mb, c.want)
		}
	}
	// A single op's error names no op, and reads the same on both.
	for _, c := range []routedCheck{
		{"/v1/query", qreq(server.QueryOp{Op: "count", Pattern: "AxC"})},
		{"/v1/query", qreq(server.QueryOp{Op: "contains"})},
		{"/v1/query", qreq(server.QueryOp{Op: "occurrences", Pattern: "AC", Max: -1})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "count", Pattern: "AC"})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "mismatch", Pattern: "AC", K: 9})},
		{"/v1/analytics", qreq(server.QueryOp{Op: "lcs", DocA: 0, DocB: tc.numDocs})},
	} {
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		rs, rb := postRaw(t, tc.routed.URL, c.path, body)
		ms, mb := postRaw(t, tc.mono.URL, c.path, body)
		if rs != http.StatusBadRequest || ms != http.StatusBadRequest || !bytes.Equal(rb, mb) || bytes.Contains(mb, []byte("op 0")) {
			t.Errorf("%s %s: routed %d %s, mono %d %s, want one 400 body naming no op", c.path, body, rs, rb, ms, mb)
		}
	}
}
