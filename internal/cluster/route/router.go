// Package route is the fault-tolerant serving tier over `era serve`
// replicas: consistent-hash shard placement, active health checking,
// retries with jittered backoff, hedged reads, stitch-aware merging, and
// explicit partial-answer degradation. It complements the sibling package
// cluster (the §5 shared-nothing construction simulation): cluster builds
// indexes across nodes, route serves them.
package route

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"era"
	"era/internal/server"
)

// Router serves a sharded corpus from per-shard monolithic indexes hosted
// on `era serve` replicas, answering byte-identically to one big index.
// Placement is a consistent-hash ring with virtual nodes: each shard's
// replica set is the first Replication distinct nodes clockwise from the
// shard name's hash, so adding a replica moves only the shards on the arcs
// it gains. The membership ops of a request reach each shard as one
// /v1/batch sub-request (a single query is the one-op case). Per-shard
// sub-requests carry per-attempt deadlines, retry with full-jitter backoff
// across the surviving owners, and optionally hedge the first attempt. The
// router is transport and policy only: what it fetched — per-shard answers,
// or bytes — goes to the merge the in-process partitioned executor runs
// (era.Stitch.Merge, era.SuffixOrderAnswer), so junction-crossing matches are
// never lost and no merge rule is spelled here.
//
// Degradation is explicit: when every replica of a shard is unreachable
// the router answers from the surviving shards with "partial": true — or
// refuses with 503 in strict mode — instead of hanging, erroring the whole
// request, or silently returning a wrong answer dressed up as a complete
// one.
type Router struct {
	cfg     RouterConfig
	ring    *Ring
	topo    atomic.Pointer[topology]
	healthy *Health

	requests  atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	partials  atomic.Int64
	shardDown atomic.Int64 // sub-queries that exhausted every replica
}

// RouterConfig tunes a Router; zero values take the documented defaults.
type RouterConfig struct {
	// Replicas are the base URLs of the `era serve` processes.
	Replicas []string
	// Corpus names the shard family to serve ("x" serves shards "x~0",
	// "x~1", ...). Empty auto-detects, requiring exactly one family.
	Corpus string
	// Replication is how many replicas each shard is placed on (default 2,
	// capped at len(Replicas)).
	Replication int
	// VNodes is the virtual-node count per replica on the ring (default 64).
	VNodes int
	// Timeout bounds one client request end to end (default 10s).
	Timeout time.Duration
	// AttemptTimeout bounds one sub-request attempt against one replica
	// (default Timeout / (Retries+2), so the retry budget fits the request
	// deadline). It applies to cheap sub-requests — membership queries,
	// content slices — where abandoning a slow replica for a retry is
	// cheaper than waiting. Expensive analytics sub-requests (a full-shard
	// walk) legitimately run for seconds, so they get the full remaining
	// request budget per attempt instead: retrying those
	// on a deadline would abandon working replicas and resubmit the same
	// heavy work, a self-amplifying overload. Their retries still fire on
	// fast failures (refused connections, 5xx, torn bodies).
	AttemptTimeout time.Duration
	// Retries is how many additional attempts a failed sub-request gets
	// (default 2). Client errors (4xx) never retry — they are deterministic.
	Retries int
	// HedgeDelay, when > 0, launches a second copy of a sub-request's first
	// attempt against the next owner if the primary hasn't answered within
	// the delay; the first success wins. Bounds tail latency at the cost of
	// duplicate work.
	HedgeDelay time.Duration
	// Strict refuses degraded answers: a shard with no reachable replica
	// fails the request with 503 instead of flagging "partial": true.
	Strict bool
	// MaxPattern is the junction-window half-width prefetched at Refresh
	// (default 64): crossing scans for patterns up to this length are
	// served from cache without touching replicas. Longer patterns fall
	// back to live fetches.
	MaxPattern int
	// Backoff jitters the sleep between retry attempts; the zero value
	// defaults to base 10ms, cap 250ms.
	Backoff Backoff
	// Health gates candidate selection; nil constructs a checker over
	// Replicas (start it with Router.Health().Start()).
	Health *Health
	// Client issues the sub-requests; nil gives the router a client of its
	// own whose transport keeps idleConnsPerReplica idle connections per
	// replica (see newTransport).
	Client *http.Client
	// ErrLog receives routing failures; nil uses the process logger.
	ErrLog *log.Logger
}

// shardInfo is one shard of the served corpus with its global placement.
type shardInfo struct {
	Name     string
	Symbols  int // indexed length incl. terminator
	Docs     int
	OffStart int // global content offset of the shard's first byte
	DocStart int // global ordinal of the shard's first document
	Owners   []string
	// batchHead is the constant head of a /v1/batch sub-request body for
	// this shard: `{"index":"<name>","ops":`.
	batchHead []byte
}

// topology is an immutable snapshot of the discovered shard layout;
// refreshes swap the pointer.
type topology struct {
	corpus   string
	shards   []shardInfo
	totalLen int // content + the single virtual terminator
	numDocs  int
	bounds   []int // interior junction offsets, ascending

	// stitch is the junction-scan view over the windows prefetched at
	// refresh, good for patterns up to MaxPattern; nil when a prefetch failed
	// (every pattern then takes the live fetch). It is immutable, so all
	// requests share it.
	stitch *era.Stitch
}

// NewRouter builds a router over the replica set; call Refresh before
// serving to discover the shard topology.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > len(cfg.Replicas) {
		cfg.Replication = len(cfg.Replicas)
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	} else if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = cfg.Timeout / time.Duration(cfg.Retries+2)
	}
	if cfg.MaxPattern <= 0 {
		cfg.MaxPattern = 64
	}
	if cfg.Backoff.Base <= 0 {
		cfg.Backoff = Backoff{Base: 10 * time.Millisecond, Cap: 250 * time.Millisecond, Rand: cfg.Backoff.Rand}
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: newTransport()}
	}
	ring := NewRing(cfg.VNodes)
	for _, r := range cfg.Replicas {
		ring.Add(r)
	}
	h := cfg.Health
	if h == nil {
		h = NewHealth(cfg.Replicas)
		h.Client = cfg.Client
	}
	return &Router{cfg: cfg, ring: ring, healthy: h}, nil
}

// idleConnsPerReplica is how many idle connections the router's own
// transport keeps per replica.
const idleConnsPerReplica = 64

// newTransport is the transport of a router that was not handed a client.
// http.DefaultClient keeps 2 idle connections per host; one client request
// already holds a connection per shard, so two concurrent ones over three
// shards exceed that and every fan-out past it dials afresh.
func newTransport() *http.Transport {
	return &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		DialContext:         (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConnsPerHost: idleConnsPerReplica,
		IdleConnTimeout:     90 * time.Second,
	}
}

// Health exposes the router's checker so callers can start its background
// loop (and tests can drive it synchronously).
func (rt *Router) Health() *Health { return rt.healthy }

// Placement returns shard name → replica set for the current topology;
// provisioning tooling uses it to decide which replica loads which shard
// files.
func (rt *Router) Placement() map[string][]string {
	topo := rt.topo.Load()
	if topo == nil {
		return nil
	}
	out := make(map[string][]string, len(topo.shards))
	for _, sh := range topo.shards {
		out[sh.Name] = append([]string(nil), sh.Owners...)
	}
	return out
}

// Refresh discovers the shard topology: it lists /v1/indexes on every
// replica — a replica need only load the shards placed on it — unions the
// listings by name, refusing a shard two replicas describe differently,
// groups names of the form "corpus~N", verifies the family is contiguous from
// 0, computes each shard's global offsets, assigns owners from the ring (an
// owner that answered and does not list the shard is no candidate for it),
// and prefetches the junction stitch windows. Serving continues on the
// previous topology until the swap at the end.
func (rt *Router) Refresh(ctx context.Context) error {
	listings := make([]map[string]wireIndexInfo, len(rt.cfg.Replicas)) // nil: unreachable
	errs := make([]error, len(rt.cfg.Replicas))
	var wg sync.WaitGroup
	for r, base := range rt.cfg.Replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var listing struct {
				Indexes []wireIndexInfo `json:"indexes"`
			}
			if errs[r] = rt.doJSON(ctx, []string{base}, false, http.MethodGet, "/v1/indexes", nil, &listing); errs[r] != nil {
				return
			}
			listings[r] = make(map[string]wireIndexInfo, len(listing.Indexes))
			for _, info := range listing.Indexes {
				listings[r][info.Name] = info
			}
		}()
	}
	wg.Wait()
	if !slices.ContainsFunc(errs, func(e error) bool { return e == nil }) {
		return fmt.Errorf("cluster: topology discovery failed on every replica: %w", errors.Join(errs...))
	}
	holds := func(base, shard string) bool { // false only when base answered without it
		l := listings[slices.Index(rt.cfg.Replicas, base)]
		_, ok := l[shard]
		return l == nil || ok
	}

	byFamily := map[string]map[int]wireIndexInfo{}
	for r, listing := range listings {
		for _, info := range listing {
			tilde := strings.LastIndexByte(info.Name, '~')
			if tilde < 1 {
				continue
			}
			n, err := strconv.Atoi(info.Name[tilde+1:])
			if err != nil || n < 0 {
				continue
			}
			fam := info.Name[:tilde]
			if byFamily[fam] == nil {
				byFamily[fam] = map[int]wireIndexInfo{}
			}
			if prev, ok := byFamily[fam][n]; ok && prev != info {
				return fmt.Errorf("cluster: replicas disagree on shard %s: %s lists %d symbols in %d documents, another replica %d in %d",
					info.Name, rt.cfg.Replicas[r], info.Symbols, info.Documents, prev.Symbols, prev.Documents)
			}
			byFamily[fam][n] = info
		}
	}
	corpus := rt.cfg.Corpus
	if corpus == "" {
		if len(byFamily) != 1 {
			return fmt.Errorf("cluster: found %d shard families, need -corpus to pick one", len(byFamily))
		}
		for fam := range byFamily {
			corpus = fam
		}
	}
	family := byFamily[corpus]
	if len(family) == 0 {
		return fmt.Errorf("cluster: no shards named %s~N on the replicas", corpus)
	}

	topo := &topology{corpus: corpus}
	for i := 0; i < len(family); i++ {
		info, ok := family[i]
		if !ok {
			return fmt.Errorf("cluster: shard family %s has %d members but %s~%d is missing", corpus, len(family), corpus, i)
		}
		if info.Symbols < 1 {
			return fmt.Errorf("cluster: shard %s reports %d symbols", info.Name, info.Symbols)
		}
		sh := shardInfo{
			Name:     info.Name,
			Symbols:  info.Symbols,
			Docs:     info.Documents,
			OffStart: topo.totalLen,
			DocStart: topo.numDocs,
		}
		for _, o := range rt.ring.Owners(info.Name, rt.cfg.Replication) {
			if holds(o, info.Name) {
				sh.Owners = append(sh.Owners, o)
			}
		}
		if len(sh.Owners) == 0 {
			return fmt.Errorf("cluster: none of the replicas the ring places shard %s on has it loaded", info.Name)
		}
		name, err := json.Marshal(info.Name)
		if err != nil {
			return err
		}
		sh.batchHead = append(append([]byte(`{"index":`), name...), `,"ops":`...)
		topo.shards = append(topo.shards, sh)
		topo.totalLen += info.Symbols - 1 // per-shard terminators are not global bytes
		topo.numDocs += info.Documents
	}
	topo.totalLen++ // the single virtual terminator
	for _, sh := range topo.shards[1:] {
		topo.bounds = append(topo.bounds, sh.OffStart)
	}

	// Prefetch the junction windows at the MaxPattern half-width; a failure
	// here is tolerable (live fetches cover it), so errors only log.
	if st, missing, err := rt.fetchStitch(ctx, topo, rt.cfg.MaxPattern); err != nil || missing {
		rt.logf("cluster: junction prefetch incomplete; crossing scans will fetch live")
	} else {
		topo.stitch = st
	}

	rt.topo.Store(topo)
	return nil
}

// wireIndexInfo is the subset of the replica /v1/indexes entry the router
// needs.
type wireIndexInfo struct {
	Name      string `json:"name"`
	Symbols   int    `json:"symbols"`
	Documents int    `json:"documents"`
}

// ---------------------------------------------------------------------------
// Sub-request plumbing: candidate selection, retries, hedging.

// routeError is an HTTP-level failure from a replica (or synthesized by the
// router); transport failures travel as ordinary errors.
type routeError struct {
	status int
	msg    string
}

func (e *routeError) Error() string { return e.msg }

// clientErr reports a deterministic client error (4xx): retrying it on
// another replica cannot change the answer.
func clientErr(err error) bool {
	var re *routeError
	return errors.As(err, &re) && re.status >= 400 && re.status < 500
}

// candidates orders a shard's owners for attempting: healthy owners first
// (in ring preference order), ejected ones after — if the checker has
// ejected everyone, the requests themselves get to discover a recovery.
func (rt *Router) candidates(owners []string) []string {
	out := make([]string, 0, len(owners))
	var down []string
	for _, o := range owners {
		if rt.healthy.Healthy(o) {
			out = append(out, o)
		} else {
			down = append(down, o)
		}
	}
	return append(out, down...)
}

// doShard runs one sub-request against a shard's replica set: per-attempt
// deadlines, full-jitter backoff between retries, an optional hedged first
// attempt, ejection feedback to the health checker, and fail-fast on 4xx.
// decode consumes a 2xx body; its error counts as a failed attempt (a torn
// or truncated body is a network fault, not an answer). heavy marks an
// expensive sub-request whose attempts run under the full remaining request
// budget instead of AttemptTimeout (see RouterConfig.AttemptTimeout).
func (rt *Router) doShard(ctx context.Context, owners []string, heavy bool, build func(base string) (*http.Request, error), decode func(body []byte) error) error {
	cands := rt.candidates(owners)
	if len(cands) == 0 {
		return fmt.Errorf("cluster: no replicas")
	}
	attempts := rt.cfg.Retries + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		base := cands[attempt%len(cands)]
		var err error
		if attempt == 0 && rt.cfg.HedgeDelay > 0 && len(cands) > 1 {
			err = rt.hedged(ctx, base, cands[1], heavy, build, decode)
		} else {
			err = rt.attempt(ctx, base, heavy, build, decode)
		}
		if err == nil {
			return nil
		}
		if clientErr(err) {
			return err
		}
		lastErr = err
		if attempt+1 < attempts {
			rt.retries.Add(1)
			select {
			case <-time.After(rt.cfg.Backoff.Delay(attempt)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	rt.shardDown.Add(1)
	rt.logf("cluster: sub-request failed after %d attempts: %v", attempts, lastErr)
	return lastErr
}

// attempt is one bounded round trip to one replica, reporting the outcome
// to the health checker. 4xx statuses are surfaced as routeErrors and count
// as replica-healthy (the replica answered; the request was wrong).
func (rt *Router) attempt(ctx context.Context, base string, heavy bool, build func(base string) (*http.Request, error), decode func(body []byte) error) error {
	// An attempt abandoned by its caller — the losing arm of a hedge, a
	// request whose client went away — says nothing about the replica, so it
	// reports no outcome: three canceled losers would otherwise eject a slow
	// but alive primary and end hedging. The attempt's own AttemptTimeout
	// expiring leaves the parent live and still counts as a failure.
	parent := ctx
	report := func(ok bool) {
		if parent.Err() == nil {
			rt.healthy.Report(base, ok)
		}
	}
	if !heavy {
		// Heavy sub-requests keep the caller's deadline: the end-to-end
		// budget already bounds them, and a tighter per-attempt cutoff would
		// abandon a replica mid-walk just to resubmit the same work.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
		defer cancel()
	}
	req, err := build(base)
	if err != nil {
		return err
	}
	resp, err := rt.cfg.Client.Do(req.WithContext(ctx))
	if err != nil {
		report(false)
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		report(false)
		return fmt.Errorf("cluster: reading %s response: %w", base, err)
	}
	if resp.StatusCode >= 500 {
		report(false)
		return &routeError{status: resp.StatusCode, msg: wireErrMsg(body, resp.StatusCode)}
	}
	if resp.StatusCode >= 400 {
		// The replica answered; the request was wrong. That is a healthy
		// replica and a deterministic client error.
		report(true)
		return &routeError{status: resp.StatusCode, msg: wireErrMsg(body, resp.StatusCode)}
	}
	// The application-level length frame catches torn bodies whose transfer
	// framing was rewritten to look consistent (a proxy or middlebox that
	// recomputed Content-Length over a truncated payload).
	if want := resp.Header.Get("X-Era-Content-Length"); want != "" {
		if n, perr := strconv.Atoi(want); perr == nil && n != len(body) {
			report(false)
			return fmt.Errorf("cluster: %s sent %d of %d framed bytes", base, len(body), n)
		}
	}
	if decode != nil {
		if err := decode(body); err != nil {
			// A 200 whose body does not parse is a torn response, not an
			// answer; class it with the transport failures so it retries.
			report(false)
			return fmt.Errorf("cluster: decoding %s response: %w", base, err)
		}
	}
	report(true)
	return nil
}

// hedged races the primary attempt against a delayed secondary on the next
// candidate; the first success wins and the loser's context is canceled.
// Both failing returns the primary's error (it is the representative one).
func (rt *Router) hedged(ctx context.Context, primary, secondary string, heavy bool, build func(base string) (*http.Request, error), decode func(body []byte) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// decode mutates caller state, so the race must serialize it: each arm
	// decodes into a private buffer first and the winner applies.
	type outcome struct {
		err  error
		body []byte
	}
	run := func(base string) outcome {
		var body []byte
		err := rt.attempt(ctx, base, heavy, build, func(b []byte) error {
			body = b
			return nil
		})
		return outcome{err: err, body: body}
	}
	prim := make(chan outcome, 1)
	go func() { prim <- run(primary) }()

	finish := func(o outcome) error {
		if o.err != nil {
			return o.err
		}
		if decode == nil {
			return nil
		}
		return decode(o.body)
	}

	var firstErr error
	var timer *time.Timer
	timer = time.NewTimer(rt.cfg.HedgeDelay)
	defer timer.Stop()
	select {
	case o := <-prim:
		if o.err == nil || clientErr(o.err) {
			return finish(o)
		}
		// Primary failed fast: its outcome is consumed, so only the
		// secondary is still owed — fall through to it immediately. (Leaving
		// prim live here would make the drain loop below wait for a second
		// primary outcome that never comes, stalling until the deadline.)
		firstErr = o.err
		prim = nil
	case <-timer.C:
		// Primary is slow: hedge.
	case <-ctx.Done():
		return ctx.Err()
	}
	rt.hedges.Add(1)
	sec := make(chan outcome, 1)
	go func() { sec <- run(secondary) }()
	for prim != nil || sec != nil {
		var o outcome
		select {
		case o = <-prim: // nil channel blocks: only pending arms can fire
			prim = nil
		case o = <-sec:
			sec = nil
		case <-ctx.Done():
			return ctx.Err()
		}
		if o.err == nil || clientErr(o.err) {
			return finish(o)
		}
		if firstErr == nil {
			firstErr = o.err
		}
	}
	return firstErr
}

// wireErrMsg extracts the {"error": ...} body of a replica error response.
func wireErrMsg(body []byte, status int) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return fmt.Sprintf("replica answered status %d", status)
}

// jsonRequest builds doShard's request for a JSON payload (nil for none).
func jsonRequest(method, path string, payload []byte) func(base string) (*http.Request, error) {
	return func(base string) (*http.Request, error) {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return nil, err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, nil
	}
}

// doJSON runs one JSON round trip through doShard.
func (rt *Router) doJSON(ctx context.Context, owners []string, heavy bool, method, path string, reqBody, out any) error {
	var payload []byte
	if reqBody != nil {
		var err error
		payload, err = json.Marshal(reqBody)
		if err != nil {
			return err
		}
	}
	return rt.doShard(ctx, owners, heavy, jsonRequest(method, path, payload), func(body []byte) error {
		if out == nil {
			return nil
		}
		return json.Unmarshal(body, out)
	})
}

// doBytes runs one octet-stream GET through doShard.
func (rt *Router) doBytes(ctx context.Context, owners []string, path string) ([]byte, error) {
	var out []byte
	err := rt.doShard(ctx, owners, false, func(base string) (*http.Request, error) {
		return http.NewRequest(http.MethodGet, base+path, nil)
	}, func(body []byte) error {
		out = body
		return nil
	})
	return out, err
}

// ---------------------------------------------------------------------------
// Shard data access: sub-queries, content slices, stitch construction.

func (rt *Router) shardQuery(ctx context.Context, sh *shardInfo, op server.QueryOp) (server.QueryResponse, error) {
	path, heavy := "/v1/query", false
	if kind, err := era.ParseOpKind(op.Op); err == nil && kind.IsAnalytic() {
		// Analytics walks a whole shard; its runtime is the corpus's, not
		// the network's, so it keeps the full request budget per attempt.
		path, heavy = "/v1/analytics", true
	}
	var resp server.QueryResponse
	err := rt.doJSON(ctx, sh.Owners, heavy, http.MethodPost, path, server.QueryRequest{Index: sh.Name, QueryOp: op}, &resp)
	return resp, err
}

// shardSlice fetches local content [lo, hi) of one shard.
func (rt *Router) shardSlice(ctx context.Context, sh *shardInfo, lo, hi int) ([]byte, error) {
	if lo == hi {
		return nil, nil
	}
	part, err := rt.doBytes(ctx, sh.Owners, fmt.Sprintf("/v1/indexes/%s/slice?lo=%d&hi=%d", sh.Name, lo, hi))
	if err == nil && len(part) != hi-lo {
		return nil, fmt.Errorf("cluster: shard %s returned %d bytes for a %d-byte slice", sh.Name, len(part), hi-lo)
	}
	return part, err
}

// globalSlice materializes global virtual-string bytes [lo, hi), spanning
// shards as needed; position totalLen-1 is the virtual terminator, which no
// replica stores, so it is synthesized.
func (rt *Router) globalSlice(ctx context.Context, topo *topology, lo, hi int) ([]byte, error) {
	if lo < 0 || hi < lo || hi > topo.totalLen {
		return nil, fmt.Errorf("cluster: global slice [%d, %d) out of range [0, %d]", lo, hi, topo.totalLen)
	}
	needTerm := hi == topo.totalLen
	if needTerm {
		hi--
	}
	out := make([]byte, 0, hi-lo+1)
	for i := range topo.shards {
		sh := &topo.shards[i]
		shLo, shHi := sh.OffStart, sh.OffStart+sh.Symbols-1
		a, b := lo, hi
		if a < shLo {
			a = shLo
		}
		if b > shHi {
			b = shHi
		}
		if a >= b {
			continue
		}
		part, err := rt.shardSlice(ctx, sh, a-shLo, b-shLo)
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	if needTerm {
		out = append(out, era.TerminatorByte)
	}
	return out, nil
}

// stitchFor returns the junction-scan view for pattern length m: the one
// prefetched at refresh when it covers m, a live fetch otherwise.
func (rt *Router) stitchFor(ctx context.Context, topo *topology, m int) (st *era.Stitch, partial bool, err error) {
	if topo.stitch != nil && m <= rt.cfg.MaxPattern {
		return topo.stitch, false, nil
	}
	return rt.fetchStitch(ctx, topo, m)
}

// fetchStitch assembles the junction-scan view for patterns up to length m:
// every junction's stitch window is fetched up front, and junctions whose
// bytes are unreachable — their shard is down — are dropped with
// partial=true rather than scanned against fabricated bytes. The returned
// Stitch serves slices purely from the fetched windows, so the scan itself
// cannot fail midway.
func (rt *Router) fetchStitch(ctx context.Context, topo *topology, m int) (st *era.Stitch, partial bool, err error) {
	var bounds, los []int
	var wins [][]byte
	if m >= 2 {
		for _, b := range topo.bounds {
			lo, hi := max(b-m+1, 0), min(b+m-1, topo.totalLen)
			data, werr := rt.globalSlice(ctx, topo, lo, hi)
			if werr != nil {
				if cerr := ctx.Err(); cerr != nil {
					return nil, false, cerr
				}
				partial = true
				continue
			}
			bounds, los, wins = append(bounds, b), append(los, lo), append(wins, data)
		}
	}
	return era.NewStitch(topo.totalLen, bounds, func(_ []byte, lo, hi int) []byte {
		// Windows ascend at both ends, so the first one ending at or past hi
		// is the one that covers [lo, hi) if any does.
		j := sort.Search(len(wins), func(j int) bool { return los[j]+len(wins[j]) >= hi })
		if j < len(wins) && lo >= los[j] {
			return wins[j][lo-los[j] : hi-los[j]]
		}
		// Unreachable by construction; returning an empty window of the
		// right length keeps the scan crash-free if it ever isn't.
		return make([]byte, hi-lo)
	}), partial, nil
}

// ---------------------------------------------------------------------------
// Routed execution: fan the op out, hand what came back to the merge.

// errShardDown marks a shard whose every replica failed; the caller decides
// between partial degradation and strict refusal.
var errShardDown = errors.New("cluster: shard unavailable")

// fanOut runs fn for every shard concurrently; dead[i] reports a shard whose
// every replica failed, a 4xx from any shard aborts with that error.
func (rt *Router) fanOut(ctx context.Context, topo *topology, fn func(i int, sh *shardInfo) error) (dead []bool, err error) {
	errs := make([]error, len(topo.shards))
	var wg sync.WaitGroup
	for i := range topo.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, &topo.shards[i])
		}(i)
	}
	wg.Wait()
	dead = make([]bool, len(topo.shards))
	for i, e := range errs {
		if e == nil {
			continue
		}
		if clientErr(e) {
			return nil, e
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		dead[i] = true
	}
	return dead, nil
}

// degrade folds a fan-out's dead shards into the answer policy: strict mode
// refuses, otherwise the caller proceeds without those shards and the
// answer is flagged partial.
func (rt *Router) degrade(topo *topology, dead []bool) (partial bool, err error) {
	var names []string
	for i, d := range dead {
		if d {
			names = append(names, topo.shards[i].Name)
		}
	}
	if len(names) == 0 {
		return false, nil
	}
	if rt.cfg.Strict {
		return false, fmt.Errorf("%w: %s", errShardDown, strings.Join(names, ", "))
	}
	return true, nil
}

// analytic answers one planned and validated analytics op through its
// routed executor.
func (rt *Router) analytic(ctx context.Context, topo *topology, op era.Op) (res era.Result, partial bool, err error) {
	switch op.Kind {
	case era.OpTopK, era.OpLongestRepeat:
		return rt.suffixOrder(ctx, topo, op)
	case era.OpCommonSubstring:
		return rt.commonSubstring(ctx, topo, op)
	case era.OpDocFreq, era.OpMismatch:
		return rt.merged(ctx, topo, op)
	}
	return era.Result{}, false, &routeError{status: http.StatusBadRequest, msg: fmt.Sprintf("unsupported op kind %v", op.Kind)}
}

// A membership sub-batch is cut at whichever budget fills first. The byte
// budget counts the ops as the router encodes them, so a sub-request stays
// far under the replicas' 1 MiB body limit however a client body the router
// admitted was spelled (an op over the budget on its own rides alone), and
// the answers the router holds at once are those of one chunk.
const (
	maxChunkOps   = 512
	maxChunkBytes = 256 << 10
)

// opError attributes a client error to one op of a multi-op call, by its
// position in the ops the call was handed.
type opError struct {
	op  int
	err error
}

func (e *opError) Error() string { return server.OpPrefix(e.op) + e.err.Error() }
func (e *opError) Unwrap() error { return e.err }

// memberAnswer is what the merge reads of a replica's answer to one
// membership op (server.QueryResponse without the pointer fields).
type memberAnswer struct {
	Found       bool  `json:"found"`
	Count       int   `json:"count"`
	Occurrences []int `json:"occurrences"`
}

// encodeChunk writes the longest prefix of ops that fits the chunk budgets
// into buf as a JSON array of wire ops and returns how many it took.
func encodeChunk(buf *bytes.Buffer, ops []era.Op) (int, error) {
	buf.Reset()
	buf.WriteByte('[')
	enc := json.NewEncoder(buf)
	// Patterns are echoed to the replica as the client spelled them; HTML
	// escaping would only inflate '<', '>' and '&' sixfold.
	enc.SetEscapeHTML(false)
	n := 0
	for n < len(ops) && n < maxChunkOps {
		mark := buf.Len()
		if n > 0 {
			buf.WriteByte(',')
		}
		op := &ops[n]
		if err := enc.Encode(server.QueryOp{Op: op.Kind.String(), Pattern: string(op.Pattern), Max: op.MaxOccurrences}); err != nil {
			return 0, err
		}
		buf.Truncate(buf.Len() - 1) // Encode's newline
		if n > 0 && buf.Len() > maxChunkBytes {
			buf.Truncate(mark)
			break
		}
		n++
	}
	buf.WriteByte(']')
	return n, nil
}

// membership answers contains/count/occurrences ops — one from /v1/query, or
// the membership ops of a /v1/batch — the way the in-process executor's batch
// does: every shard gets the ops as one /v1/batch sub-request per chunk, and
// each op's per-shard answers go to the merge it calls (era.Stitch.Merge)
// with the junction windows. Sub-requests keep the client's occurrence cap:
// shards cover ascending disjoint ranges, so the merged first-Max needs at
// most the first Max from each shard. A shard that is down is down for every
// op of the chunk, so partial is per op but uniform within a chunk. A
// replica's 400 comes back as an opError naming the op it was about.
func (rt *Router) membership(ctx context.Context, topo *topology, ops []era.Op) (results []era.Result, partial []bool, err error) {
	results = make([]era.Result, len(ops))
	partial = make([]bool, len(ops))
	var chunk bytes.Buffer
	for lo := 0; lo < len(ops); {
		n, err := encodeChunk(&chunk, ops[lo:])
		if err != nil {
			return nil, nil, err
		}
		cops := ops[lo : lo+n]

		// No terminator gate here (in process, liveSnapshot.tailMatch keeps
		// such patterns away from the trees): a pattern containing the
		// terminator byte is outside every replica's alphabet, so its op fails
		// the sub-batch with a 400 before any shard can report a phantom match
		// against its own local terminator.
		perShard := make([][]memberAnswer, len(topo.shards))
		dead, err := rt.fanOut(ctx, topo, func(i int, sh *shardInfo) error {
			body := make([]byte, 0, len(sh.batchHead)+chunk.Len()+1)
			body = append(append(append(body, sh.batchHead...), chunk.Bytes()...), '}')
			return rt.doShard(ctx, sh.Owners, false, jsonRequest(http.MethodPost, "/v1/batch", body), func(raw []byte) error {
				var resp struct {
					Results []memberAnswer `json:"results"`
				}
				if err := json.Unmarshal(raw, &resp); err != nil {
					return err
				}
				if len(resp.Results) != n {
					return fmt.Errorf("%d results for a %d-op sub-batch", len(resp.Results), n)
				}
				perShard[i] = resp.Results
				return nil
			})
		})
		if err != nil {
			var re *routeError
			if errors.As(err, &re) && re.status == http.StatusBadRequest {
				// The replica names the op by its sub-batch position, and a
				// sub-batch of one not at all.
				pos, msg, ok := server.SplitOpError(re.msg)
				switch {
				case n == 1:
					err = &opError{op: lo, err: err}
				case ok && pos < n:
					err = &opError{op: lo + pos, err: &routeError{status: re.status, msg: msg}}
				}
			}
			return nil, nil, err
		}
		chunkPartial, err := rt.degrade(topo, dead)
		if err != nil {
			return nil, nil, err
		}

		parts := make([]era.Part, 0, len(topo.shards))
		for oi := range cops {
			parts = parts[:0]
			for i, answers := range perShard {
				if answers != nil { // nil: the shard is down
					a := &answers[oi]
					parts = append(parts, era.Part{Off: topo.shards[i].OffStart, Found: a.Found, Count: a.Count, Occurrences: a.Occurrences})
				}
			}
			st, stPartial, err := rt.stitchFor(ctx, topo, len(cops[oi].Pattern))
			if err != nil {
				return nil, nil, err
			}
			results[lo+oi], partial[lo+oi] = st.Merge(cops[oi], parts), chunkPartial || stPartial
		}
		lo += n
	}
	return results, partial, nil
}

// suffixOrder answers lrs and topk the way the in-process partitioned layers
// do, from the suffix order of the corpus itself: every shard's content is
// fetched, and what arrived goes to era.SuffixOrderAnswer. No per-shard answer
// bounds either op — a repeat or a window may straddle a cut, and a substring
// frequent overall can rank below k in every shard — so this costs O(corpus)
// on the wire per call, as it costs the in-process layers O(corpus) of memory.
// A dead shard is a gap between the runs, which no window or occurrence spans.
func (rt *Router) suffixOrder(ctx context.Context, topo *topology, op era.Op) (era.Result, bool, error) {
	runs := make([]era.Run, len(topo.shards))
	dead, err := rt.fanOut(ctx, topo, func(i int, sh *shardInfo) error {
		data, err := rt.shardSlice(ctx, sh, 0, sh.Symbols-1)
		runs[i] = era.Run{Off: sh.OffStart, Data: data}
		return err
	})
	if err != nil {
		return era.Result{}, false, err
	}
	partial, err := rt.degrade(topo, dead)
	if err != nil {
		return era.Result{}, false, err
	}
	live := runs[:0]
	for i, r := range runs {
		if !dead[i] {
			live = append(live, r)
		}
	}
	res, err := era.SuffixOrderAnswer(ctx, op, live)
	return res, partial, err
}

// commonSubstring answers lcs: both documents in one shard delegate to that
// shard's tree executor; documents in different shards fetch their raw
// bytes and run the canonical hash search — either path is a pure function
// of the two documents' contents, so the answers coincide.
func (rt *Router) commonSubstring(ctx context.Context, topo *topology, op era.Op) (era.Result, bool, error) {
	si, la := shardOfDoc(topo, op.DocA)
	sj, lb := shardOfDoc(topo, op.DocB)
	if si == sj {
		resp, err := rt.shardQuery(ctx, &topo.shards[si], server.QueryOp{Op: "lcs", DocA: la, DocB: lb})
		if err == nil {
			return fromWire(era.OpCommonSubstring, resp), false, nil
		}
		if clientErr(err) || ctx.Err() != nil {
			return era.Result{}, false, err
		}
		if rt.cfg.Strict {
			return era.Result{}, false, fmt.Errorf("%w: %s: %v", errShardDown, topo.shards[si].Name, err)
		}
		return era.Result{OffsetA: -1, OffsetB: -1}, true, nil
	}
	var docA, docB []byte
	fetch := func(s, ord int, out *[]byte) error {
		b, err := rt.doBytes(ctx, topo.shards[s].Owners, fmt.Sprintf("/v1/indexes/%s/doc/%d", topo.shards[s].Name, ord))
		*out = b
		return err
	}
	errA := fetch(si, la, &docA)
	errB := fetch(sj, lb, &docB)
	for _, ferr := range []error{errA, errB} {
		if ferr == nil {
			continue
		}
		if clientErr(ferr) || ctx.Err() != nil {
			return era.Result{}, false, ferr
		}
		if rt.cfg.Strict {
			return era.Result{}, false, fmt.Errorf("%w: %v", errShardDown, ferr)
		}
		return era.Result{OffsetA: -1, OffsetB: -1}, true, nil
	}
	label, offA, offB := era.LCSTwoStrings(docA, docB)
	return era.Result{Found: label != nil, Pattern: label, OffsetA: offA, OffsetB: offB, Count: len(label)}, false, nil
}

// merged answers docfreq and mismatch: every shard answers the op over its
// own documents and the answers go to era.Stitch.Merge with the junction
// windows (of which docfreq, with no pattern of its own, needs none). Like
// membership sub-requests, these keep the client's occurrence cap.
func (rt *Router) merged(ctx context.Context, topo *topology, op era.Op) (era.Result, bool, error) {
	qop := server.QueryOp{Op: op.Kind.String(), Pattern: string(op.Pattern), K: op.K, Max: op.MaxOccurrences}
	for _, p := range op.Patterns {
		qop.Patterns = append(qop.Patterns, string(p))
	}
	resps := make([]server.QueryResponse, len(topo.shards))
	dead, err := rt.fanOut(ctx, topo, func(i int, sh *shardInfo) (err error) {
		resps[i], err = rt.shardQuery(ctx, sh, qop)
		return err
	})
	if err != nil {
		return era.Result{}, false, err
	}
	partial, err := rt.degrade(topo, dead)
	if err != nil {
		return era.Result{}, false, err
	}
	parts := make([]era.Part, 0, len(topo.shards))
	for i, r := range resps {
		if !dead[i] {
			a := fromWire(op.Kind, r)
			parts = append(parts, era.Part{Off: topo.shards[i].OffStart, Found: a.Found, Count: a.Count, Occurrences: a.Occurrences, Stats: a.Stats})
		}
	}
	st, stPartial, err := rt.stitchFor(ctx, topo, len(op.Pattern))
	if err != nil {
		return era.Result{}, false, err
	}
	return st.Merge(op, parts), partial || stPartial, nil
}

// shardOfDoc resolves a global document ordinal to (shard index, local
// ordinal).
func shardOfDoc(topo *topology, doc int) (int, int) {
	i := sort.Search(len(topo.shards), func(j int) bool { return topo.shards[j].DocStart > doc }) - 1
	if i < 0 {
		i = 0
	}
	return i, doc - topo.shards[i].DocStart
}

// fromWire converts a replica's wire response back to the library result.
func fromWire(kind era.OpKind, w server.QueryResponse) era.Result {
	res := era.Result{Found: w.Found, Occurrences: w.Occurrences}
	if w.Count != nil {
		res.Count = *w.Count
	}
	if w.Pattern != "" {
		res.Pattern = []byte(w.Pattern)
	}
	if w.OffsetA != nil {
		res.OffsetA = *w.OffsetA
	}
	if w.OffsetB != nil {
		res.OffsetB = *w.OffsetB
	}
	if len(w.Top) > 0 {
		res.Top = make([]era.TopEntry, len(w.Top))
		for i, t := range w.Top {
			res.Top[i] = era.TopEntry{Pattern: []byte(t.Pattern), Count: t.Count}
		}
	}
	if len(w.Stats) > 0 {
		res.Stats = make([]era.PatternStat, len(w.Stats))
		for i, s := range w.Stats {
			res.Stats[i] = era.PatternStat{Docs: s.Docs, Count: s.Count}
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// HTTP front end.

// Handler returns the router's HTTP API: the same /v1/query, /v1/analytics
// and /v1/batch surface as a replica (so clients cannot tell a router from
// a monolithic server except by the partial field), plus its own probes and
// metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v); err != nil {
			rt.logf("cluster: encoding response: %v", err)
		}
	}
	writeErr := func(w http.ResponseWriter, status int, msg string) {
		writeJSON(w, status, map[string]string{"error": msg})
	}
	fail := func(w http.ResponseWriter, err error) {
		var re *routeError
		switch {
		case errors.As(err, &re):
			writeErr(w, re.status, re.msg)
		case errors.Is(err, errShardDown):
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			writeErr(w, http.StatusGatewayTimeout, "routed query deadline exceeded")
		case errors.Is(err, context.Canceled):
			writeErr(w, http.StatusServiceUnavailable, "request canceled")
		default:
			// Whatever broke the fan-out was replica-side or network-side.
			writeErr(w, http.StatusBadGateway, err.Error())
		}
	}

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		topo := rt.topo.Load()
		anyHealthy := false
		for _, ok := range rt.healthy.Snapshot() {
			if ok {
				anyHealthy = true
				break
			}
		}
		if topo == nil || !anyHealthy {
			writeJSON(w, http.StatusServiceUnavailable, map[string]bool{"ready": false})
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})
	mux.HandleFunc("GET /metricz", func(w http.ResponseWriter, r *http.Request) {
		topo := rt.topo.Load()
		shards := 0
		if topo != nil {
			shards = len(topo.shards)
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"requests":    rt.requests.Load(),
			"retries":     rt.retries.Load(),
			"hedges":      rt.hedges.Load(),
			"partials":    rt.partials.Load(),
			"shard_down":  rt.shardDown.Load(),
			"shards":      shards,
			"replicas":    rt.healthy.Snapshot(),
			"replication": rt.cfg.Replication,
		})
	})
	mux.HandleFunc("GET /v1/indexes", func(w http.ResponseWriter, r *http.Request) {
		topo := rt.topo.Load()
		if topo == nil {
			writeJSON(w, http.StatusOK, map[string]any{"indexes": []any{}})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"indexes": []map[string]any{{
			"name":      topo.corpus,
			"symbols":   topo.totalLen,
			"documents": topo.numDocs,
			"shards":    len(topo.shards),
		}}})
	})

	serveOps := func(w http.ResponseWriter, r *http.Request, index string, qops []server.QueryOp, batch bool) {
		topo := rt.topo.Load()
		if topo == nil {
			writeErr(w, http.StatusServiceUnavailable, "router has no topology yet")
			return
		}
		if index != topo.corpus {
			writeErr(w, http.StatusNotFound, fmt.Sprintf("no index named %q routed (serving %q)", index, topo.corpus))
			return
		}
		rt.requests.Add(1)
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.Timeout)
		defer cancel()
		// failOp reports op i's failure; like the replica API, a batch names
		// the op a client error is about by its position in the request.
		failOp := func(i int, err error) {
			var re *routeError
			if batch && errors.As(err, &re) && clientErr(err) {
				err = &routeError{status: re.status, msg: server.OpPrefix(i) + re.msg}
			}
			fail(w, err)
		}
		ops := make([]era.Op, len(qops))
		var member []int // positions of the membership ops
		for i := range qops {
			op, err := qops[i].Plan()
			if err != nil {
				failOp(i, &routeError{status: http.StatusBadRequest, msg: err.Error()})
				return
			}
			ops[i] = op
			if !op.Kind.IsAnalytic() {
				member = append(member, i)
				continue
			}
			// Analytics parameters are validated against the global corpus
			// (the replicas would validate against their local shard — a
			// global document ordinal can be perfectly valid and still exceed
			// every shard's count).
			if err := op.Validate(nil, topo.numDocs); err != nil {
				failOp(i, &routeError{status: http.StatusBadRequest, msg: err.Error()})
				return
			}
		}
		wire := make([]server.QueryResponse, len(ops))
		answer := func(i int, res era.Result, partial bool) {
			if partial {
				rt.partials.Add(1)
			}
			wire[i] = server.ToWire(ops[i], res)
			wire[i].Partial = partial
		}
		// The membership ops of the request go first, together; an analytics
		// op then runs its own routed executor.
		if len(member) > 0 {
			mops := ops
			if len(member) < len(ops) {
				mops = make([]era.Op, len(member))
				for j, i := range member {
					mops[j] = ops[i]
				}
			}
			res, partial, err := rt.membership(ctx, topo, mops)
			if err != nil {
				var oe *opError
				if errors.As(err, &oe) {
					failOp(member[oe.op], oe.err)
				} else {
					fail(w, err)
				}
				return
			}
			for j, i := range member {
				answer(i, res[j], partial[j])
			}
		}
		for i, op := range ops {
			if !op.Kind.IsAnalytic() {
				continue
			}
			res, partial, err := rt.analytic(ctx, topo, op)
			if err != nil {
				failOp(i, err)
				return
			}
			answer(i, res, partial)
		}
		if batch {
			writeJSON(w, http.StatusOK, map[string]any{"results": wire})
			return
		}
		writeJSON(w, http.StatusOK, wire[0])
	}
	readJSON := func(w http.ResponseWriter, r *http.Request, dst any) bool {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			writeErr(w, http.StatusBadRequest, "invalid request body: "+err.Error())
			return false
		}
		return true
	}
	single := func(analyticsOnly bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req server.QueryRequest
			if !readJSON(w, r, &req) {
				return
			}
			if analyticsOnly {
				// Same surface discipline as the replica API (an unknown op
				// falls through to Plan's own parse error).
				if kind, err := era.ParseOpKind(req.Op); err == nil && !kind.IsAnalytic() {
					writeErr(w, http.StatusBadRequest,
						fmt.Sprintf("op %q is a membership query, not an analytics op; use /v1/query", req.Op))
					return
				}
			}
			serveOps(w, r, req.Index, []server.QueryOp{req.QueryOp}, false)
		}
	}
	mux.HandleFunc("POST /v1/query", single(false))
	mux.HandleFunc("POST /v1/analytics", single(true))
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req server.BatchRequest
		if !readJSON(w, r, &req) {
			return
		}
		if len(req.Ops) == 0 {
			writeErr(w, http.StatusBadRequest, "batch has no ops")
			return
		}
		if len(req.Ops) > server.MaxBatchOps {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("batch of %d ops exceeds the limit of %d", len(req.Ops), server.MaxBatchOps))
			return
		}
		serveOps(w, r, req.Index, req.Ops, true)
	})
	return mux
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.ErrLog != nil {
		rt.cfg.ErrLog.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}
