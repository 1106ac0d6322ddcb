// Package route is the fault-tolerant serving tier over `era serve`
// replicas: consistent-hash shard placement, active health checking,
// retries with jittered backoff, hedged reads, owner routing over
// prefix-partitioned shards, and explicit partial-answer degradation. It
// complements the sibling package cluster (the §5 shared-nothing
// construction simulation): cluster builds indexes across nodes, route
// serves them.
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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"era"
	"era/internal/server"
)

// Router serves a corpus from its prefix-partitioned shards — each an
// `era shard -splitdir` file whose tree holds one range of the suffix order
// over all of S — hosted on `era serve` replicas, answering byte-identically
// to one big index. Placement is a consistent-hash ring with virtual nodes:
// each shard's replica set is the first Replication distinct nodes clockwise
// from the shard name's hash, so adding a replica moves only the shards on
// the arcs it gains. A membership op goes to the shards that own its pattern
// (era.Owners) — one, unless the pattern is a proper prefix of a shard key —
// and the ops of a request reach each shard they touch as one /v1/batch
// sub-request; topk, lrs and mismatch ask every shard, docfreq its patterns'
// owners, lcs any one shard. Per-shard sub-requests carry per-attempt
// deadlines, retry with full-jitter backoff across the surviving owners, and
// optionally hedge the first attempt. The router is transport and policy
// only: what the shards answer goes to the merge the in-process sharded
// index runs (era.MergeShards), so no merge rule is spelled here.
//
// Degradation is explicit: when every replica of a shard is unreachable
// the ops that shard owns are answered from the shards that are left with
// "partial": true — or refused with 503 in strict mode — instead of hanging,
// erroring the whole request, or silently returning a wrong answer dressed
// up as a complete one; ops the dead shard does not own are unaffected.

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
	// deadline). It applies to cheap sub-requests — membership queries and
	// listings — where abandoning a slow replica for a retry is
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

// shardInfo is one shard of the served corpus.
type shardInfo struct {
	Name   string
	Owners []string
	// batchHead is the constant head of a /v1/batch sub-request body for
	// this shard: `{"index":"<name>","ops":`.
	batchHead []byte
}

// topology is an immutable snapshot of the discovered shard layout;
// refreshes swap the pointer.
type topology struct {
	corpus   string
	shards   []shardInfo
	keys     [][]byte // keys[i]: shard i's lower key, the era.Owners cuts
	totalLen int      // every shard's: each holds all of S, terminator included
	numDocs  int
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
// listings by name, refusing a shard two replicas describe differently
// (counts, range or image fingerprint), groups names of the form "corpus~N",
// verifies that the family is contiguous from 0 and tiles the suffix order
// of one corpus, and assigns owners from the ring (an owner that answered and
// does not list the shard is no candidate for it). Serving continues on the
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
				return fmt.Errorf("cluster: replicas disagree on shard %s: %s lists %v, another replica %v",
					info.Name, rt.cfg.Replicas[r], info, prev)
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

	topo := &topology{corpus: corpus, totalLen: family[0].Symbols, numDocs: family[0].Documents}
	for i := 0; i < len(family); i++ {
		info, ok := family[i]
		if !ok {
			return fmt.Errorf("cluster: shard family %s has %d members but %s~%d is missing", corpus, len(family), corpus, i)
		}
		if err := checkMember(corpus, family, i); err != nil {
			return err
		}
		sh := shardInfo{Name: info.Name}
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
		topo.keys = append(topo.keys, []byte(info.Range.Lo))
	}
	if last := family[len(family)-1]; last.Range.Hi != "" {
		return fmt.Errorf("cluster: shard family %s stops short of the end of the suffix order: %s ends at %q", corpus, last.Name, last.Range.Hi)
	}
	rt.topo.Store(topo)
	return nil
}

// checkMember holds shard i of a family to the rest: one corpus (symbols,
// documents, alphabet) and, from shard 0 on, ranges that abut. A whole-corpus
// image beside others is a family cut at document boundaries (or two builds
// mixed), which no router merge answers correctly.
func checkMember(corpus string, family map[int]wireIndexInfo, i int) error {
	info, first := family[i], family[0]
	if info.Symbols < 1 || info.Symbols != first.Symbols || info.Documents != first.Documents || info.Alphabet != first.Alphabet {
		return fmt.Errorf("cluster: shard family %s is not one corpus: %s indexes %d symbols in %d documents (%s), %s %d in %d (%s)",
			corpus, info.Name, info.Symbols, info.Documents, info.Alphabet, first.Name, first.Symbols, first.Documents, first.Alphabet)
	}
	if len(family) > 1 && info.Range == (server.KeyRange{}) {
		return fmt.Errorf("cluster: shard family %s must be rebuilt: %s is a whole-corpus image among %d shards, which is what a family cut at document boundaries is — rebuild it as prefix ranges (era shard -splitdir)",
			corpus, info.Name, len(family))
	}
	var prevHi, prevLo server.Text
	if i > 0 {
		prevHi, prevLo = family[i-1].Range.Hi, family[i-1].Range.Lo
	}
	if info.Range.Lo != prevHi || (i > 0 && (prevHi == "" || info.Range.Lo <= prevLo)) {
		return fmt.Errorf("cluster: shard family %s is not contiguous: %s starts its range at %q where the shard before ends at %q", corpus, info.Name, info.Range.Lo, prevHi)
	}
	return nil
}

// wireIndexInfo is the subset of the replica /v1/indexes entry the router
// needs: comparable, so two replicas' listings of one shard compare whole.
type wireIndexInfo struct {
	Name        string          `json:"name"`
	Symbols     int             `json:"symbols"`
	Documents   int             `json:"documents"`
	Alphabet    string          `json:"alphabet"`
	Range       server.KeyRange `json:"range"` // zero for a whole-corpus image
	Fingerprint string          `json:"fingerprint"`
}

func (w wireIndexInfo) String() string {
	return fmt.Sprintf("%d symbols in %d documents (%s), range [%q, %q), fingerprint %s", w.Symbols, w.Documents, w.Alphabet, w.Range.Lo, w.Range.Hi, w.Fingerprint)
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

// ---------------------------------------------------------------------------
// Shard sub-queries.

func (rt *Router) shardQuery(ctx context.Context, sh *shardInfo, op server.WireOp) (server.QueryResponse, error) {
	path, heavy := "/v1/query", false
	if kind, err := era.ParseOpKind(op.Op); err == nil && kind.IsAnalytic() {
		// Analytics walks a whole shard; its runtime is the corpus's, not
		// the network's, so it keeps the full request budget per attempt.
		path, heavy = "/v1/analytics", true
	}
	var resp server.QueryResponse
	err := rt.doJSON(ctx, sh.Owners, heavy, http.MethodPost, path, server.WireQuery{Index: sh.Name, WireOp: op}, &resp)
	return resp, err
}

// ---------------------------------------------------------------------------
// Routed execution: send each op to the shards that own it, hand what came
// back to the merge.

// errShardDown marks a shard whose every replica failed; the caller decides
// between partial degradation and strict refusal.
var errShardDown = errors.New("cluster: shard unavailable")

// fanOut runs fn for the given shards concurrently; dead[i] reports a shard
// i whose every replica failed. A client error (4xx) from any shard aborts
// with that error — the one naming the earliest client op when several do.
func (rt *Router) fanOut(ctx context.Context, topo *topology, shards []int, fn func(i int) error) (dead []bool, err error) {
	errs := make([]error, len(topo.shards))
	var wg sync.WaitGroup
	for _, i := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	dead = make([]bool, len(topo.shards))
	for i, e := range errs {
		switch {
		case e == nil:
		case clientErr(e):
			if err == nil || opIndex(e) < opIndex(err) {
				err = e
			}
		case ctx.Err() != nil:
			return nil, ctx.Err()
		default:
			dead[i] = true
		}
	}
	if err != nil {
		return nil, err
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

// analytic answers one planned and validated analytics op: lcs on any one
// shard, every other kind on the shards era.AnalyticsShards names, merged by
// era.MergeShards — which asks the membership path for the facts across the
// cuts no shard holds (the count of a boundary L-mer, the occurrences of a
// repeat that straddles a cut).
func (rt *Router) analytic(ctx context.Context, topo *topology, op era.Op) (res era.Result, partial bool, err error) {
	if op.Kind == era.OpCommonSubstring {
		return rt.commonSubstring(ctx, topo, op)
	}
	qop := server.WireOp{Op: op.Kind.String(), Pattern: server.Text(op.Pattern), K: op.K, Max: op.MaxOccurrences, MinLen: op.MinLen}
	for _, p := range op.Patterns {
		qop.Patterns = append(qop.Patterns, server.Text(p))
	}
	var asked []int
	for i, a := range era.AnalyticsShards(op, topo.keys) {
		if a {
			asked = append(asked, i)
		}
	}
	resps := make([]server.QueryResponse, len(topo.shards))
	dead, err := rt.fanOut(ctx, topo, asked, func(i int) (err error) {
		resps[i], err = rt.shardQuery(ctx, &topo.shards[i], qop)
		return err
	})
	if err != nil {
		return era.Result{}, false, err
	}
	if partial, err = rt.degrade(topo, dead); err != nil {
		return era.Result{}, false, err
	}
	parts := make([]*era.Answer, len(topo.shards))
	for _, i := range asked {
		if !dead[i] {
			a := fromWire(op.Kind, resps[i])
			parts[i] = &a
		}
	}
	res, err = era.MergeShards(op, topo.keys, parts, func(m era.Op) (era.Result, error) {
		r, p, err := rt.membership(ctx, topo, []era.Op{m})
		if err != nil {
			return era.Result{}, err
		}
		partial = partial || p[0]
		return r[0], nil
	})
	return res, partial, err
}

// commonSubstring answers lcs on one shard — every shard holds both
// documents — the first one that answers, in shard order.
func (rt *Router) commonSubstring(ctx context.Context, topo *topology, op era.Op) (era.Result, bool, error) {
	qop := server.WireOp{Op: op.Kind.String(), DocA: op.DocA, DocB: op.DocB}
	var errs []error
	for i := range topo.shards {
		resp, err := rt.shardQuery(ctx, &topo.shards[i], qop)
		if err == nil {
			return fromWire(op.Kind, resp), false, nil
		}
		if clientErr(err) || ctx.Err() != nil {
			return era.Result{}, false, err
		}
		errs = append(errs, err)
	}
	if rt.cfg.Strict {
		return era.Result{}, false, fmt.Errorf("%w: every shard: %v", errShardDown, errors.Join(errs...))
	}
	return era.Result{OffsetA: -1, OffsetB: -1}, true, nil
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

// opIndex is the op a client error names, or -1 when it names none.
func opIndex(err error) int {
	var oe *opError
	if errors.As(err, &oe) {
		return oe.op
	}
	return -1
}

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
		if err := enc.Encode(server.WireOp{Op: op.Kind.String(), Pattern: server.Text(op.Pattern), Max: op.MaxOccurrences}); err != nil {
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
// the membership ops of a /v1/batch — the way the in-process sharded index's
// Batch does: each op goes to the shards that own its pattern, every shard
// the request touches gets the ops it owns as one /v1/batch sub-request per
// chunk, and an op's owners' answers go to era.MergeShards. Sub-requests keep
// the client's occurrence cap: the merged first-Max needs at most the first
// Max from each owner. A shard that is down marks partial exactly the ops it
// owns. A replica's 400 comes back as an opError naming the client's op.
func (rt *Router) membership(ctx context.Context, topo *topology, ops []era.Op) (results []era.Result, partial []bool, err error) {
	// No terminator gate here (the trees answer patterns holding it as the
	// whole index does): a pattern containing the terminator byte is outside
	// every replica's alphabet, so its op fails the sub-batch with a 400.
	owners := make([][2]int, len(ops))
	own := make([][]int, len(topo.shards)) // own[s]: the ops shard s owns, ascending
	var touched []int
	for i := range ops {
		first, last := era.Owners(topo.keys, ops[i].Pattern)
		owners[i] = [2]int{first, last}
		for s := first; s <= last; s++ {
			if len(own[s]) == 0 {
				touched = append(touched, s)
			}
			own[s] = append(own[s], i)
		}
	}
	answers := make([][]era.Result, len(topo.shards)) // aligned with own
	dead, err := rt.fanOut(ctx, topo, touched, func(s int) (err error) {
		answers[s], err = rt.memberShard(ctx, &topo.shards[s], ops, own[s])
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	results = make([]era.Result, len(ops))
	partial = make([]bool, len(ops))
	parts := make([]*era.Answer, len(topo.shards))
	next := make([]int, len(topo.shards)) // the next answer of each shard's
	var down []string
	for i, op := range ops {
		first, last := owners[i][0], owners[i][1]
		for s := first; s <= last; s++ {
			parts[s] = nil
			if dead[s] {
				partial[i] = true
				down = append(down, topo.shards[s].Name)
				continue
			}
			parts[s] = &answers[s][next[s]]
			next[s]++
		}
		results[i], _ = era.MergeShards(op, topo.keys, parts[first:last+1], nil)
	}
	if len(down) > 0 && rt.cfg.Strict {
		slices.Sort(down)
		return nil, nil, fmt.Errorf("%w: %s", errShardDown, strings.Join(slices.Compact(down), ", "))
	}
	return results, partial, nil
}

// memberShard sends one shard the ops it owns (ops[own[j]]), cut into
// chunks, and returns its answers in that order.
func (rt *Router) memberShard(ctx context.Context, sh *shardInfo, ops []era.Op, own []int) ([]era.Result, error) {
	sub := make([]era.Op, len(own))
	for j, i := range own {
		sub[j] = ops[i]
	}
	out := make([]era.Result, 0, len(sub))
	var chunk bytes.Buffer
	for lo := 0; lo < len(sub); {
		n, err := encodeChunk(&chunk, sub[lo:])
		if err != nil {
			return nil, err
		}
		body := make([]byte, 0, len(sh.batchHead)+chunk.Len()+1)
		body = append(append(append(body, sh.batchHead...), chunk.Bytes()...), '}')
		err = rt.doShard(ctx, sh.Owners, false, jsonRequest(http.MethodPost, "/v1/batch", body), func(raw []byte) error {
			var resp struct {
				Results []memberAnswer `json:"results"`
			}
			if err := json.Unmarshal(raw, &resp); err != nil {
				return err
			}
			if len(resp.Results) != n {
				return fmt.Errorf("%d results for a %d-op sub-batch", len(resp.Results), n)
			}
			for _, a := range resp.Results {
				out = append(out, era.Result{Found: a.Found, Count: a.Count, Occurrences: a.Occurrences})
			}
			return nil
		})
		if err != nil {
			var re *routeError
			if errors.As(err, &re) && re.status == http.StatusBadRequest {
				// The replica names the op by its sub-batch position, and a
				// sub-batch of one not at all.
				pos, msg, ok := server.SplitOpError(re.msg)
				switch {
				case n == 1:
					err = &opError{op: own[lo], err: err}
				case ok && pos < n:
					err = &opError{op: own[lo+pos], err: &routeError{status: re.status, msg: msg}}
				}
			}
			return nil, err
		}
		lo += n
	}
	return out, nil
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

	serveOps := func(w http.ResponseWriter, r *http.Request, index string, qops []server.WireOp, batch bool) {
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
			var req server.WireQuery
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
			serveOps(w, r, req.Index, []server.WireOp{req.WireOp}, false)
		}
	}
	mux.HandleFunc("POST /v1/query", single(false))
	mux.HandleFunc("POST /v1/analytics", single(true))
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req server.WireBatch
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
