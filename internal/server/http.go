// JSON-over-HTTP front end for a Backend: the query engine of `era serve`,
// or the cluster router of `era route` (internal/cluster/route), which serves
// the same surface over a corpus's shards.
//
// Endpoints:
//
//	GET  /healthz             liveness probe (the process is up)
//	GET  /readyz              readiness probe (the backend wants traffic)
//	GET  /metricz             per-op latency histograms, recovered panics and
//	                          the backend's fields: an engine's counters
//	                          ("engine") and per-index memory ("indexes"), a
//	                          router's retries, hedges, partials and placement
//	GET  /v1/indexes          served indexes with summary metadata
//	GET  /v1/indexes/{name}   one index's metadata
//	POST /v1/query            one query: {"index","op","pattern"[,"max"]}
//	POST /v1/analytics        one analytics query: {"index","op",...per-op params}
//	POST /v1/batch            many queries: {"index","ops":[{"op",...},...]}
//
// Every index's metadata names its alphabet and lists the alphabet's symbols
// (alphabet_symbols); a shard's — a split file whose tree holds one range of
// the suffix order — also carries its range and the image's fingerprint, and
// a sharded index's its shard count. The cluster router rebuilds the alphabet
// to validate ops as a replica does, routes each op to the shards whose
// ranges own it, refuses replicas that disagree on any of these, and lists
// its corpus as a sharded index. Every body it reads from a replica is a type
// of this package.
//
// Live (mutable) indexes additionally accept:
//
//	POST   /v1/indexes/{name}/docs      append documents: {"docs":["..."]} → {"ids":[...]}
//	DELETE /v1/indexes/{name}/docs/{id} tombstone one document → {"deleted":bool,"id":N}
//
// Patterns travel as JSON strings; the indexed alphabets (DNA, protein,
// English text) are all byte-per-symbol printable, so no escaping layer is
// needed beyond JSON's own.
//
// Error discipline: 400 for requests the client got wrong (bad JSON, bad
// op, empty pattern, bytes outside the target index's alphabet — the error
// names the offending byte, and a batch's error names its op as "op N: "),
// 404 only for an unknown index name, a StatusError's own status (the
// router's 502 for a failed fan-out, 503 with no topology or in strict
// mode), 504 past the query timeout, 500 for anything else the backend
// reports. Response-encoding failures cannot be surfaced to the client (the
// status line is gone); they go to the handler's error log.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"era"
)

// MaxBatchOps bounds one /v1/batch request, so a single client cannot park
// an arbitrary amount of work on one connection.
const MaxBatchOps = 10000

// maxBodyBytes bounds request bodies; patterns are tiny compared to this.
const maxBodyBytes = 1 << 20

// maxAppendBytes bounds one append request's body. Documents are real
// corpus data, not patterns, so the limit is far looser than maxBodyBytes.
const maxAppendBytes = 16 << 20

// MaxAppendDocs bounds the documents in one append request.
const MaxAppendDocs = 10000

// Backend is what the HTTP API serves: everything the handler asks of the
// thing behind it. *Engine implements it over its catalog, and the cluster
// router (internal/cluster/route) over its shard topology, so a router and a
// replica share one request surface.
type Backend interface {
	// Ready reports whether the backend wants new traffic (/readyz).
	Ready() bool
	// Names lists the indexes served, and Describe one index's listing entry
	// (/v1/indexes and /v1/indexes/{name}): an engine describes each index it
	// loaded, a router its corpus as one sharded index of its K shards.
	Names() []string
	Describe(name string) (IndexInfo, bool)
	// Answer answers ops against the index named index. partial[i] marks a
	// degraded answer to op i; a nil partial marks none. An error naming one
	// op wraps *era.OpError with the op's position.
	Answer(ctx context.Context, index string, ops []era.Op) (results []era.Result, partial []bool, err error)
	AppendDocs(index string, docs [][]byte) ([]uint64, error)
	DeleteDoc(index string, id uint64) (bool, error)
	// Metrics is the backend's own part of /metricz, a fresh map the
	// handler adds its ops and panics to.
	Metrics() map[string]any
}

// StatusError is an error answered with its own HTTP status: a backend's
// failure that no sentinel of this package names, such as a cluster router's
// fan-out failure (502) or a replica's 4xx relayed as it came.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string { return e.Msg }

// NewHandler returns the HTTP API over b, logging server-side failures (e.g.
// response encoding errors) to the process-default logger.
func NewHandler(b Backend) http.Handler {
	return NewHandlerOpts(b, Options{})
}

// Options tunes the HTTP handler beyond its backend.
type Options struct {
	// ErrLog receives server-side failures (response-encoding errors,
	// recovered panics); nil falls back to the process-default logger.
	ErrLog *log.Logger
	// QueryTimeout bounds the server-side execution of each query,
	// analytics and batch request: past it the request's context expires,
	// the analytics executors abandon their walks at the next periodic
	// check, and the client gets 504. Zero means no server-imposed bound —
	// the client's own disconnect still cancels the context either way.
	QueryTimeout time.Duration
}

// NewHandlerOpts is NewHandler with explicit Options.
func NewHandlerOpts(b Backend, opts Options) http.Handler {
	h := &api{b: b, errLog: opts.ErrLog, timeout: opts.QueryTimeout}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h.writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness is the router's ejection signal: alive-but-draining (or
		// a fully quarantined catalog) answers 503 so new traffic routes to
		// healthy replicas, while /healthz above keeps reporting liveness.
		if !b.Ready() {
			h.writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
			return
		}
		h.writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})
	mux.HandleFunc("GET /metricz", func(w http.ResponseWriter, r *http.Request) {
		h.writeJSON(w, http.StatusOK, h.metricz())
	})
	mux.HandleFunc("GET /v1/indexes", func(w http.ResponseWriter, r *http.Request) {
		list := IndexList{Indexes: []IndexInfo{}}
		for _, name := range b.Names() {
			if info, ok := b.Describe(name); ok {
				list.Indexes = append(list.Indexes, info)
			}
		}
		h.writeJSON(w, http.StatusOK, list)
	})
	mux.HandleFunc("GET /v1/indexes/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		info, ok := b.Describe(name)
		if !ok {
			h.writeError(w, http.StatusNotFound, fmt.Sprintf("no index named %q loaded", name))
			return
		}
		h.writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("POST /v1/indexes/{name}/docs", func(w http.ResponseWriter, r *http.Request) {
		var req appendRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAppendBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				h.writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("append body exceeds the %d-byte limit", mbe.Limit))
				return
			}
			h.writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
			return
		}
		if len(req.Docs) == 0 {
			h.writeError(w, http.StatusBadRequest, "append has no docs")
			return
		}
		if len(req.Docs) > MaxAppendDocs {
			h.writeError(w, http.StatusBadRequest, fmt.Sprintf("append of %d docs exceeds the limit of %d", len(req.Docs), MaxAppendDocs))
			return
		}
		docs := make([][]byte, len(req.Docs))
		for i, d := range req.Docs {
			docs[i] = []byte(d)
		}
		start := time.Now()
		ids, err := b.AppendDocs(r.PathValue("name"), docs)
		h.metrics.append.observe(time.Since(start))
		if err != nil {
			h.writeQueryError(w, err)
			return
		}
		h.writeJSON(w, http.StatusOK, appendResponse{IDs: ids})
	})
	mux.HandleFunc("DELETE /v1/indexes/{name}/docs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			h.writeError(w, http.StatusBadRequest, "document id must be an unsigned integer")
			return
		}
		start := time.Now()
		deleted, err := b.DeleteDoc(r.PathValue("name"), id)
		h.metrics.delete.observe(time.Since(start))
		if err != nil {
			h.writeQueryError(w, err)
			return
		}
		h.writeJSON(w, http.StatusOK, deleteResponse{Deleted: deleted, ID: id})
	})
	single := func(analytics bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req WireQuery
			if !h.readJSON(w, r, &req) {
				return
			}
			op, err := req.Plan()
			if err != nil {
				h.writeError(w, http.StatusBadRequest, err.Error())
				return
			}
			hist := &h.metrics.query
			if analytics {
				if !op.Kind.IsAnalytic() {
					h.writeError(w, http.StatusBadRequest,
						fmt.Sprintf("op %q is a membership query, not an analytics op; use /v1/query", req.Op))
					return
				}
				// Analytics latencies differ by orders of magnitude between
				// kinds, so one shared histogram would hide all of them.
				hist = h.metrics.analyticsHist(op.Kind)
			}
			h.answer(w, r, req.Index, []era.Op{op}, hist, false)
		}
	}
	mux.HandleFunc("POST /v1/query", single(false))
	mux.HandleFunc("POST /v1/analytics", single(true))
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req WireBatch
		if !h.readJSON(w, r, &req) {
			return
		}
		if len(req.Ops) == 0 {
			h.writeError(w, http.StatusBadRequest, "batch has no ops")
			return
		}
		if len(req.Ops) > MaxBatchOps {
			h.writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d ops exceeds the limit of %d", len(req.Ops), MaxBatchOps))
			return
		}
		ops := make([]era.Op, len(req.Ops))
		for i, q := range req.Ops {
			op, err := q.Plan()
			if err != nil {
				h.writeError(w, http.StatusBadRequest, (&era.OpError{Op: i, Err: err}).Error())
				return
			}
			ops[i] = op
		}
		h.answer(w, r, req.Index, ops, &h.metrics.batch, true)
	})
	return h.recoverPanics(mux)
}

// answer has the backend answer ops under the request's budget and writes
// the results: the lone result of /v1/query and /v1/analytics, the results
// array of a batch. The histogram times the backend's work only (not body
// decode or response encode), so it reflects index latency, not client I/O.
// A batch error names its op; a single op's error does not.
func (h *api) answer(w http.ResponseWriter, r *http.Request, index string, ops []era.Op, hist *latencyHist, batch bool) {
	ctx, cancel := h.queryCtx(r)
	defer cancel()
	start := time.Now()
	res, partial, err := h.b.Answer(ctx, index, ops)
	hist.observe(time.Since(start))
	if err != nil {
		var oe *era.OpError
		if !batch && errors.As(err, &oe) {
			err = oe.Err
		}
		h.writeQueryError(w, err)
		return
	}
	wire := make([]QueryResponse, len(ops))
	for i := range ops {
		wire[i] = ToWire(ops[i], res[i])
		wire[i].Partial = partial != nil && partial[i]
	}
	if !batch {
		h.writeJSON(w, http.StatusOK, &wire[0])
		return
	}
	h.writeJSON(w, http.StatusOK, BatchResponse{Results: wire})
}

// recoverPanics is the outermost middleware: a panicking handler must cost
// one 500, not the process. The recovered value and stack go to the error
// log, and the panics counter surfaces in /metricz so a crash-looping
// request pattern is visible from outside.
func (h *api) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				// The sentinel for deliberately torn responses (the fault
				// proxy uses it too); re-panic so net/http aborts the
				// connection as intended.
				panic(rec)
			}
			h.panics.Add(1)
			h.logf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			// The status line may already be gone; WriteHeader is then a
			// no-op plus a log line, which is the best that can be done.
			h.writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// queryCtx derives the execution context for one query request: the
// client's own context (canceled when it disconnects), bounded by the
// handler's QueryTimeout when one is configured.
func (h *api) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if h.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), h.timeout)
}

// metricz is the /metricz payload: the handler's per-op latency
// distributions and recovered panics, beside the backend's own fields.
func (h *api) metricz() map[string]any {
	ops := map[string]HistSnapshot{
		"query":  h.metrics.query.snapshot(),
		"batch":  h.metrics.batch.snapshot(),
		"append": h.metrics.append.snapshot(),
		"delete": h.metrics.delete.snapshot(),
	}
	for k := era.OpTopK; k <= era.OpMismatch; k++ {
		ops["analytics:"+k.String()] = h.metrics.analyticsHist(k).snapshot()
	}
	out := h.b.Metrics()
	out["ops"], out["panics"] = ops, h.panics.Load()
	return out
}

// api carries the handler's dependencies; the mux closures share one.
type api struct {
	b       Backend
	errLog  *log.Logger
	metrics opMetrics
	timeout time.Duration // per-request query budget; 0 means unbounded
	panics  atomic.Int64  // handlers recovered by recoverPanics
}

func (h *api) logf(format string, args ...any) {
	if h.errLog != nil {
		h.errLog.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// writeQueryError maps a backend error to a status: a StatusError's own, 404
// only when the index name is unknown (a client addressing problem), 400 for
// a rejected query or mutation, 503 with Retry-After for append
// backpressure, 500 otherwise — an internal failure must not masquerade as
// "not found".
func (h *api) writeQueryError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var se *StatusError
	switch {
	case errors.As(err, &se):
		status = se.Status
	case errors.Is(err, ErrUnknownIndex):
		status = http.StatusNotFound
	case errors.Is(err, era.ErrInvalidQuery),
		errors.Is(err, ErrNotMutable),
		errors.Is(err, ErrBadDocument):
		status = http.StatusBadRequest
	case errors.Is(err, ErrSaturated):
		// The bound is queue depth on a mutex held for milliseconds; a
		// one-second backoff is generous.
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		// The server's own -timeout expired mid-walk; the query was
		// abandoned, not answered wrong.
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away; the status is for the access log only.
		status = http.StatusServiceUnavailable
	}
	h.writeError(w, status, err.Error())
}

// WireOp is the wire form of one operation, as the handlers read it and the
// cluster router writes it. Membership ops (contains, count, occurrences) use
// op/pattern/max; the analytics ops add their own parameters — topk: k +
// min_len; lcs: doc_a + doc_b; docfreq: patterns; mismatch: pattern + k.
// Per-op validation happens in the Backend's Answer (era.Query.Validate)
// against the target index, so a pattern-less op is not rejected here for
// having no pattern. The patterns are Text: the router asks about prefixes
// of shard keys, which may end inside a character, and they must arrive as
// sent.
type WireOp struct {
	Op       string `json:"op"`
	Pattern  Text   `json:"pattern,omitempty"`
	Max      int    `json:"max,omitempty"`
	K        int    `json:"k,omitempty"`
	MinLen   int    `json:"min_len,omitempty"`
	DocA     int    `json:"doc_a,omitempty"`
	DocB     int    `json:"doc_b,omitempty"`
	Patterns []Text `json:"patterns,omitempty"`
}

// Plan is the op q spells; WireOpOf is its inverse.
func (q WireOp) Plan() (era.Op, error) {
	kind, err := era.ParseOpKind(q.Op)
	if err != nil {
		return era.Op{}, err
	}
	if q.Max < 0 {
		return era.Op{}, fmt.Errorf("max must be ≥ 0, got %d", q.Max)
	}
	op := era.Op{
		Kind:           kind,
		Pattern:        []byte(q.Pattern),
		MaxOccurrences: q.Max,
		K:              q.K,
		MinLen:         q.MinLen,
		DocA:           q.DocA,
		DocB:           q.DocB,
	}
	if len(q.Patterns) > 0 {
		op.Patterns = make([][]byte, len(q.Patterns))
		for i, p := range q.Patterns {
			op.Patterns[i] = []byte(p)
		}
	}
	return op, nil
}

// WireOpOf is the wire form of op, as the cluster router sends it to a
// replica: Plan gives op back.
func WireOpOf(op era.Op) WireOp {
	w := WireOp{Op: op.Kind.String(), Pattern: Text(op.Pattern), Max: op.MaxOccurrences,
		K: op.K, MinLen: op.MinLen, DocA: op.DocA, DocB: op.DocB}
	for _, p := range op.Patterns {
		w.Patterns = append(w.Patterns, Text(p))
	}
	return w
}

// WireQuery is the body of /v1/query and /v1/analytics; WireBatch of
// /v1/batch.
type WireQuery struct {
	Index string `json:"index"`
	WireOp
}

type WireBatch struct {
	Index string   `json:"index"`
	Ops   []WireOp `json:"ops"`
}

// QueryOp, QueryRequest and BatchRequest are the same bodies as a Go client
// spells them, with string patterns: json.Marshal writes those as UTF-8, a
// byte that is not becoming U+FFFD.
type QueryOp struct {
	Op       string   `json:"op"`
	Pattern  string   `json:"pattern,omitempty"`
	Max      int      `json:"max,omitempty"`
	K        int      `json:"k,omitempty"`
	MinLen   int      `json:"min_len,omitempty"`
	DocA     int      `json:"doc_a,omitempty"`
	DocB     int      `json:"doc_b,omitempty"`
	Patterns []string `json:"patterns,omitempty"`
}

type QueryRequest struct {
	Index string `json:"index"`
	QueryOp
}

type BatchRequest struct {
	Index string    `json:"index"`
	Ops   []QueryOp `json:"ops"`
}

// appendRequest carries documents for a live index; like patterns, they
// travel as Text.
type appendRequest struct {
	Docs []Text `json:"docs"`
}

type appendResponse struct {
	IDs []uint64 `json:"ids"`
}

type deleteResponse struct {
	Deleted bool   `json:"deleted"`
	ID      uint64 `json:"id"`
}

// QueryResponse is the wire form of one result. Fields beyond found are
// present only when the op produces them: count/occurrences for the
// membership ops, pattern + occurrences for lrs, pattern + offsets for lcs,
// top for topk, stats for docfreq.
type QueryResponse struct {
	Found       bool       `json:"found"`
	Count       *int       `json:"count,omitempty"`
	Occurrences []int      `json:"occurrences,omitempty"`
	Truncated   bool       `json:"truncated,omitempty"`
	Pattern     Text       `json:"pattern,omitempty"`
	Top         []WireTop  `json:"top,omitempty"`
	OffsetA     *int       `json:"offset_a,omitempty"`
	OffsetB     *int       `json:"offset_b,omitempty"`
	Stats       []WireStat `json:"stats,omitempty"`
	// Partial marks a degraded routed answer: every replica of at least one
	// shard was unreachable, so the result covers only the shards that
	// responded. Monolithic servers never set it.
	Partial bool `json:"partial,omitempty"`
}

// BatchResponse is the body of a /v1/batch answer.
type BatchResponse struct {
	Results []QueryResponse `json:"results"`
}

// WireTop is one ranked entry of a topk answer.
type WireTop struct {
	Pattern Text `json:"pattern"`
	Count   int  `json:"count"`
}

// WireStat is one pattern's document-frequency stats, positionally aligned
// with the request's patterns array.
type WireStat struct {
	Docs  int `json:"docs"`
	Count int `json:"count"`
}

// ToWire is the wire form of op's result, as a replica answers it; Result
// reads it back.
func ToWire(op era.Op, res era.Result) QueryResponse {
	out := QueryResponse{Found: res.Found}
	switch op.Kind {
	case era.OpCount, era.OpOccurrences:
		c := res.Count
		out.Count = &c
		if op.Kind == era.OpOccurrences && res.Found {
			out.Occurrences = res.Occurrences
			if out.Occurrences == nil {
				out.Occurrences = []int{}
			}
			out.Truncated = len(res.Occurrences) < res.Count
		}
	case era.OpTopK:
		c := res.Count
		out.Count = &c
		out.Top = make([]WireTop, len(res.Top))
		for i, e := range res.Top {
			out.Top[i] = WireTop{Pattern: Text(e.Pattern), Count: e.Count}
		}
	case era.OpLongestRepeat:
		c := res.Count
		out.Count = &c
		out.Pattern = Text(res.Pattern)
		if res.Found {
			out.Occurrences = res.Occurrences
			if out.Occurrences == nil {
				out.Occurrences = []int{}
			}
		}
	case era.OpCommonSubstring:
		c := res.Count
		out.Count = &c
		out.Pattern = Text(res.Pattern)
		a, b := res.OffsetA, res.OffsetB
		out.OffsetA, out.OffsetB = &a, &b
	case era.OpDocFreq:
		c := res.Count
		out.Count = &c
		out.Stats = make([]WireStat, len(res.Stats))
		for i, s := range res.Stats {
			out.Stats[i] = WireStat{Docs: s.Docs, Count: s.Count}
		}
	case era.OpMismatch:
		c := res.Count
		out.Count = &c
		if res.Found {
			out.Occurrences = res.Occurrences
			if out.Occurrences == nil {
				out.Occurrences = []int{}
			}
			out.Truncated = len(res.Occurrences) < res.Count
		}
	}
	return out
}

// Result is the library result q stands for, as the cluster router reads a
// replica's answer back: ToWire's inverse but for Truncated and Partial,
// which only the wire carries.
func (q QueryResponse) Result() era.Result {
	res := era.Result{Found: q.Found, Occurrences: q.Occurrences}
	if q.Count != nil {
		res.Count = *q.Count
	}
	if q.Pattern != "" {
		res.Pattern = []byte(q.Pattern)
	}
	if q.OffsetA != nil {
		res.OffsetA = *q.OffsetA
	}
	if q.OffsetB != nil {
		res.OffsetB = *q.OffsetB
	}
	if len(q.Top) > 0 {
		res.Top = make([]era.TopEntry, len(q.Top))
		for i, t := range q.Top {
			res.Top[i] = era.TopEntry{Pattern: []byte(t.Pattern), Count: t.Count}
		}
	}
	if len(q.Stats) > 0 {
		res.Stats = make([]era.PatternStat, len(q.Stats))
		for i, st := range q.Stats {
			res.Stats[i] = era.PatternStat{Docs: st.Docs, Count: st.Count}
		}
	}
	return res
}

// IndexInfo is one index's listing entry, the body of /v1/indexes/{name}.
// It is comparable, so two replicas' entries for one shard compare whole.
type IndexInfo struct {
	Name      string `json:"name"`
	Symbols   int    `json:"symbols"` // indexed length incl. terminator
	Documents int    `json:"documents"`
	Alphabet  string `json:"alphabet"`
	// AlphabetSymbols are the alphabet's symbols, ascending.
	AlphabetSymbols Text  `json:"alphabet_symbols"`
	TreeNodes       int64 `json:"tree_nodes"`
	// Shards is a sharded index's shard count, absent for any other.
	Shards int `json:"shards,omitempty"`
	// Range is the part of the suffix order the index's tree holds, absent
	// for an index over every suffix; Fingerprint is the v4 header checksum
	// of a monolithic image (era.Index.Fingerprint), in hex.
	Range       KeyRange `json:"range,omitzero"`
	Fingerprint string   `json:"fingerprint,omitempty"`
}

// IndexList is the body of /v1/indexes.
type IndexList struct {
	Indexes []IndexInfo `json:"indexes"`
}

// KeyRange is a shard's part of the suffix order on the wire: the suffixes s
// with Lo ≤ s < Hi, an empty Hi being the end of the order (era.Index.Range).
type KeyRange struct {
	Lo Text `json:"lo"`
	Hi Text `json:"hi"`
}

func describe(name string, idx era.Queryable) IndexInfo {
	info := IndexInfo{
		Name:            name,
		Symbols:         idx.Len(),
		Documents:       idx.NumDocs(),
		Alphabet:        idx.Alphabet().Name(),
		AlphabetSymbols: Text(idx.Alphabet().Symbols()),
		TreeNodes:       idx.TreeNodes(),
	}
	switch x := idx.(type) {
	case *era.Index:
		info.Fingerprint = fmt.Sprintf("%08x", x.Fingerprint())
		lo, hi := x.Range()
		info.Range = KeyRange{Lo: Text(lo), Hi: Text(hi)}
	case *era.ShardedIndex:
		info.Shards = x.NumShards()
	}
	return info
}

// Describe is the listing entry of the index named name.
func (e *Engine) Describe(name string) (IndexInfo, bool) {
	idx, ok := e.Get(name)
	if !ok {
		return IndexInfo{}, false
	}
	return describe(name, idx), true
}

// indexMemInfo is an index's /metricz entry: its listing plus memory
// accounting (mapped_bytes > 0 marks a zero-copy image; resident_bytes is
// how much of it the page cache currently holds, -1 when the platform cannot
// tell).
type indexMemInfo struct {
	IndexInfo
	MappedBytes   int64    `json:"mapped_bytes"`
	ResidentBytes int64    `json:"resident_bytes"`
	Quarantined   []string `json:"quarantined_tiers,omitempty"` // live indexes: tier files renamed aside at load
}

// Metrics is the engine's part of /metricz: its counters (Stats) and each
// index's memory.
func (e *Engine) Metrics() map[string]any {
	names := e.Names()
	infos := make([]indexMemInfo, 0, len(names))
	for _, name := range names {
		idx, ok := e.Get(name)
		if !ok {
			continue
		}
		info := indexMemInfo{
			IndexInfo:     describe(name, idx),
			MappedBytes:   idx.MappedBytes(),
			ResidentBytes: idx.ResidentBytes(),
		}
		if live, ok := idx.(interface{ Stats() era.LiveStats }); ok {
			info.Quarantined = live.Stats().Quarantined
		}
		infos = append(infos, info)
	}
	return map[string]any{"engine": e.Stats(), "indexes": infos}
}

func (h *api) readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		h.writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return false
	}
	return true
}

// writeJSON encodes v as the response body. An encode failure after the
// status line is written cannot reach the client as an error status, so it
// is surfaced through the handler's error log instead of being discarded.
func (h *api) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		h.logf("server: encoding response: %v", err)
	}
}

func (h *api) writeError(w http.ResponseWriter, status int, msg string) {
	// Engine errors carry a "server: " package prefix that means nothing to
	// HTTP clients.
	h.writeJSON(w, status, ErrorResponse{Error: strings.TrimPrefix(msg, "server: ")})
}

// ErrorResponse is the body of every error status.
type ErrorResponse struct {
	Error string `json:"error"`
}
