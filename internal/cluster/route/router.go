// Package route is the fault-tolerant serving tier over `era serve`
// replicas: shard placement read from the replicas' own listings, active
// health checking, retries with jittered backoff, hedged reads, and explicit
// partial-answer degradation over prefix-partitioned shards. It carries
// requests only: it validates ops as a replica does, which shards an op asks
// and how their answers merge is era.RouteOps, the executor the in-process
// sharded index runs too, and the HTTP front end is the replica's own
// (server.NewHandlerOpts, with the Router as its server.Backend), and every
// body it sends or reads is an internal/server type, so no validation,
// routing or merge rule, no request surface and no wire type is spelled here.
// It complements the sibling package cluster (the §5 shared-nothing
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
	"era/internal/alphabet"
	"era/internal/server"
)

// Router serves a corpus from its prefix-partitioned shards — each an
// `era shard -splitdir` file whose tree holds one range of the suffix order
// over all of S — hosted on `era serve` replicas, answering byte-identically
// to one big index. Placement is what the replicas list: shard i's owners are
// the replicas whose /v1/indexes names it at the last Refresh, in Replicas
// order rotated to start at replica i mod len(Replicas) so the primaries
// spread, at most Replication of them. A request's ops are validated as a
// replica validates them, against the alphabet the shards list, and go to
// era.RouteOps, which decides the shards each op asks and merges their
// answers; the router asks a shard every op it is asked as /v1/batch
// sub-requests, one per chunk. Per-shard sub-requests carry per-attempt
// deadlines, retry with full-jitter backoff across the surviving owners, and
// optionally hedge the first attempt.
//
// Degradation is explicit: a shard whose every replica is unreachable is
// era.ErrShardDown to the executor, which answers the ops that needed it
// from the shards that are left with "partial": true — or the router refuses
// the request with 503 in strict mode — instead of hanging, erroring the
// whole request, or silently returning a wrong answer dressed up as a
// complete one; ops the dead shard does not own are unaffected.
type Router struct {
	cfg     RouterConfig
	topo    atomic.Pointer[topology]
	healthy *Health

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
	// Replication is how many replicas each shard is asked on (default 2,
	// capped at len(Replicas)); a shard fewer replicas list is asked on
	// those.
	Replication int
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
	// info is the corpus's listing entry (Describe): every shard's symbols
	// (each holds all of S), documents and alphabet, their tree nodes summed.
	info   server.IndexInfo
	alpha  *alphabet.Alphabet // rebuilt from the listing, what ops are validated against
	shards []shardInfo
	keys   [][]byte // keys[i]: shard i's lower key, what era.RouteOps routes by
}

// NewRouter builds a router over the replica set; call Refresh before
// serving to discover the shard topology.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica")
	}
	for i, r := range cfg.Replicas {
		if slices.Contains(cfg.Replicas[:i], r) {
			return nil, fmt.Errorf("cluster: replica %s is listed twice", r)
		}
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	if cfg.Replication > len(cfg.Replicas) {
		cfg.Replication = len(cfg.Replicas)
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
	h := cfg.Health
	if h == nil {
		h = NewHealth(cfg.Replicas)
		h.Client = cfg.Client
	}
	return &Router{cfg: cfg, healthy: h}, nil
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

// Placement returns shard name → the replicas it is asked on, in the order
// they are tried, for the current topology.
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

// UnderReplicated names, sorted, the shards of the current topology that are
// asked on fewer than Replication replicas: fewer replicas list them.
func (rt *Router) UnderReplicated() []string {
	var out []string
	if topo := rt.topo.Load(); topo != nil {
		for _, sh := range topo.shards {
			if len(sh.Owners) < rt.cfg.Replication {
				out = append(out, sh.Name)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Refresh discovers the shard topology: it lists /v1/indexes on every
// replica — a replica need only load some of the shards — unions the
// listings by name, refusing a shard two replicas describe differently
// (counts, range or image fingerprint), groups names of the form "corpus~N",
// verifies that the family is contiguous from 0 and tiles the suffix order
// of one corpus, and makes the replicas that list a shard its owners (see
// Router). A replica that does not answer is asked for nothing until a later
// Refresh lists it. Serving continues on the previous topology until the swap
// at the end.
func (rt *Router) Refresh(ctx context.Context) error {
	listings := make([]map[string]server.IndexInfo, len(rt.cfg.Replicas)) // nil: unreachable
	errs := make([]error, len(rt.cfg.Replicas))
	var wg sync.WaitGroup
	for r, base := range rt.cfg.Replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var listing server.IndexList
			if errs[r] = rt.doShard(ctx, []string{base}, false, jsonRequest(http.MethodGet, "/v1/indexes", nil), func(body []byte) error {
				return json.Unmarshal(body, &listing)
			}); errs[r] != nil {
				return
			}
			listings[r] = make(map[string]server.IndexInfo, len(listing.Indexes))
			for _, info := range listing.Indexes {
				listings[r][info.Name] = info
			}
		}()
	}
	wg.Wait()
	if !slices.ContainsFunc(errs, func(e error) bool { return e == nil }) {
		return fmt.Errorf("cluster: topology discovery failed on every replica: %w", errors.Join(errs...))
	}
	byFamily := map[string]map[int]server.IndexInfo{}
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
				byFamily[fam] = map[int]server.IndexInfo{}
			}
			if prev, ok := byFamily[fam][n]; ok && prev != info {
				return fmt.Errorf("cluster: replicas disagree on shard %s: %s lists %+v, another replica %+v",
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

	first := family[0]
	topo := &topology{info: server.IndexInfo{Name: corpus, Symbols: first.Symbols, Documents: first.Documents,
		Alphabet: first.Alphabet, AlphabetSymbols: first.AlphabetSymbols, Shards: len(family)}}
	for i := 0; i < len(family); i++ {
		info, ok := family[i]
		if !ok {
			return fmt.Errorf("cluster: shard family %s has %d members but %s~%d is missing", corpus, len(family), corpus, i)
		}
		if err := checkMember(corpus, family, i); err != nil {
			return err
		}
		topo.info.TreeNodes += info.TreeNodes
		sh := shardInfo{Name: info.Name}
		for k := 0; k < len(listings) && len(sh.Owners) < rt.cfg.Replication; k++ {
			r := (i + k) % len(listings)
			if _, ok := listings[r][info.Name]; ok {
				sh.Owners = append(sh.Owners, rt.cfg.Replicas[r])
			}
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
	var err error
	if topo.alpha, err = alphabet.New(first.Alphabet, []byte(first.AlphabetSymbols)); err != nil {
		return fmt.Errorf("cluster: shard family %s lists no usable alphabet: %w", corpus, err)
	}
	rt.topo.Store(topo)
	return nil
}

// checkMember holds shard i of a family to the rest: one corpus (symbols,
// documents, alphabet and its symbols) and, from shard 0 on, ranges that
// abut. A whole-corpus image beside others is a family cut at document
// boundaries (or two builds mixed), which no router merge answers correctly.
func checkMember(corpus string, family map[int]server.IndexInfo, i int) error {
	info, first := family[i], family[0]
	if info.Symbols < 1 || info.Symbols != first.Symbols || info.Documents != first.Documents ||
		info.Alphabet != first.Alphabet || info.AlphabetSymbols != first.AlphabetSymbols {
		return fmt.Errorf("cluster: shard family %s is not one corpus: %s indexes %d symbols in %d documents (%s %q), %s %d in %d (%s %q)",
			corpus, info.Name, info.Symbols, info.Documents, info.Alphabet, info.AlphabetSymbols,
			first.Name, first.Symbols, first.Documents, first.Alphabet, first.AlphabetSymbols)
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

// ---------------------------------------------------------------------------
// Sub-request plumbing: candidate selection, retries, hedging.

// clientErr reports a deterministic client error (4xx): retrying it on
// another replica cannot change the answer.
func clientErr(err error) bool {
	var se *server.StatusError
	return errors.As(err, &se) && se.Status >= 400 && se.Status < 500
}

// candidates orders a shard's owners for attempting: healthy owners first
// (in placement order), ejected ones after — if the checker has
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
// to the health checker. 4xx statuses are surfaced as server.StatusErrors and count
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
		return &server.StatusError{Status: resp.StatusCode, Msg: wireErrMsg(body, resp.StatusCode)}
	}
	if resp.StatusCode >= 400 {
		// The replica answered; the request was wrong. That is a healthy
		// replica and a deterministic client error.
		report(true)
		return &server.StatusError{Status: resp.StatusCode, Msg: wireErrMsg(body, resp.StatusCode)}
	}
	if err := decode(body); err != nil {
		// A 200 whose body does not parse is a torn response, not an
		// answer; class it with the transport failures so it retries.
		report(false)
		return fmt.Errorf("cluster: decoding %s response: %w", base, err)
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
	var e server.ErrorResponse
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

// ---------------------------------------------------------------------------
// Shard sub-queries: the ask era.RouteOps routes through.

// askShard answers ops on one shard for era.RouteOps as /v1/batch
// sub-requests, one per chunk (encodeChunk). Sub-requests keep the client's
// occurrence cap: the merged first-Max needs at most the first Max from each
// owner. A chunk that holds an analytics op is heavy (see doShard): the op
// walks the whole shard, so its runtime is the corpus's, not the network's.
// A client error (4xx) comes back as the replica answered it — Answer
// validated every op, so none is expected; any other failure that is not the
// request's own end means every replica of the shard failed,
// era.ErrShardDown.
func (rt *Router) askShard(ctx context.Context, sh *shardInfo, ops []era.Op) ([]era.Result, error) {
	out := make([]era.Result, 0, len(ops))
	var chunk bytes.Buffer
	for lo := 0; lo < len(ops); {
		n, err := encodeChunk(&chunk, ops[lo:])
		if err != nil {
			return nil, err
		}
		heavy := slices.ContainsFunc(ops[lo:lo+n], func(op era.Op) bool { return op.Kind.IsAnalytic() })
		body := make([]byte, 0, len(sh.batchHead)+chunk.Len()+1)
		body = append(append(append(body, sh.batchHead...), chunk.Bytes()...), '}')
		err = rt.doShard(ctx, sh.Owners, heavy, jsonRequest(http.MethodPost, "/v1/batch", body), func(raw []byte) error {
			// Room for the n answers up front: decoding then never regrows the
			// slice one doubling at a time.
			resp := server.BatchResponse{Results: make([]server.QueryResponse, 0, n)}
			if err := json.Unmarshal(raw, &resp); err != nil {
				return err
			}
			if len(resp.Results) != n {
				return fmt.Errorf("%d results for a %d-op sub-batch", len(resp.Results), n)
			}
			for i := range resp.Results {
				out = append(out, resp.Results[i].Result())
			}
			return nil
		})
		if err != nil {
			if !clientErr(err) && ctx.Err() == nil {
				err = fmt.Errorf("%w: %w", era.ErrShardDown, err)
			}
			return nil, err
		}
		lo += n
	}
	return out, nil
}

// A sub-batch is cut at whichever budget fills first. The byte budget counts
// the ops as the router encodes them, so a sub-request stays far under the
// replicas' 1 MiB body limit however a client body the router admitted was
// spelled (an op over the budget on its own rides alone), and the answers
// the router holds at once are those of one chunk.
const (
	maxChunkOps   = 512
	maxChunkBytes = 256 << 10
)

// encodeChunk writes the longest prefix of ops that fits the chunk budgets
// into buf as a JSON array of wire ops (server.WireOpOf) and returns how many
// it took.
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
		if err := enc.Encode(server.WireOpOf(ops[n])); err != nil {
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

// ---------------------------------------------------------------------------
// The backend of the HTTP front end (server.Backend).

// Handler returns the router's HTTP API: the replica's own handler serving
// the router as its backend, so that but for /metricz and the partial field
// clients cannot tell a router from a server that loaded the corpus as one
// sharded index of the same K shards, listing included (Describe).
func (rt *Router) Handler() http.Handler {
	return server.NewHandlerOpts(rt, server.Options{ErrLog: rt.cfg.ErrLog, QueryTimeout: rt.cfg.Timeout})
}

// Ready reports whether the router has a topology and a healthy replica.
func (rt *Router) Ready() bool {
	if rt.topo.Load() == nil {
		return false
	}
	for _, ok := range rt.healthy.Snapshot() {
		if ok {
			return true
		}
	}
	return false
}

// Names lists the routed corpus, once a topology is known.
func (rt *Router) Names() []string {
	if topo := rt.topo.Load(); topo != nil {
		return []string{topo.info.Name}
	}
	return nil
}

// Describe is the listing entry of the routed corpus: the entry a replica
// lists for the corpus loaded as one era.ShardedIndex of the same shards.
func (rt *Router) Describe(name string) (server.IndexInfo, bool) {
	topo := rt.topo.Load()
	if topo == nil || name != topo.info.Name {
		return server.IndexInfo{}, false
	}
	return topo.info, true
}

// Answer answers ops over the routed corpus through era.RouteOps, each shard
// asked through askShard. Every op is validated first, as Engine.Answer
// validates it — against the alphabet the shards list and the corpus's
// document count — so the first invalid op comes back as an *era.OpError
// naming the client's position, before any sub-request. Without a topology,
// and in strict mode when a shard is down, it refuses with 503; a fan-out
// that failed otherwise is 502.
func (rt *Router) Answer(ctx context.Context, index string, ops []era.Op) ([]era.Result, []bool, error) {
	topo := rt.topo.Load()
	if topo == nil {
		return nil, nil, &server.StatusError{Status: http.StatusServiceUnavailable, Msg: "router has no topology yet"}
	}
	if index != topo.info.Name {
		return nil, nil, fmt.Errorf("%w: no index named %q routed (serving %q)", server.ErrUnknownIndex, index, topo.info.Name)
	}
	for i, op := range ops {
		if err := op.Validate(topo.alpha, topo.info.Documents); err != nil {
			return nil, nil, &era.OpError{Op: i, Err: err}
		}
	}
	res, partial, down, err := era.RouteOps(ctx, topo.keys, ops, func(ctx context.Context, s int, sub []era.Op) ([]era.Result, error) {
		return rt.askShard(ctx, &topo.shards[s], sub)
	})
	if err != nil {
		var se *server.StatusError
		if !errors.As(err, &se) && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			// Whatever broke the fan-out was replica-side or network-side.
			err = &server.StatusError{Status: http.StatusBadGateway, Msg: err.Error()}
		}
		return nil, nil, err
	}
	if down != nil && rt.cfg.Strict {
		var names []string
		for s, e := range down {
			if e != nil {
				names = append(names, topo.shards[s].Name)
			}
		}
		slices.Sort(names)
		return nil, nil, &server.StatusError{Status: http.StatusServiceUnavailable, Msg: "cluster: shard unavailable: " + strings.Join(names, ", ")}
	}
	for _, p := range partial {
		if p {
			rt.partials.Add(1)
		}
	}
	return res, partial, nil
}

// AppendDocs refuses: a routed corpus is a set of static shard images.
func (rt *Router) AppendDocs(index string, docs [][]byte) ([]uint64, error) {
	return nil, fmt.Errorf("%w: %q is routed over static shards", server.ErrNotMutable, index)
}

// DeleteDoc refuses like AppendDocs.
func (rt *Router) DeleteDoc(index string, id uint64) (bool, error) {
	return false, fmt.Errorf("%w: %q is routed over static shards", server.ErrNotMutable, index)
}

// Metrics is the router's part of /metricz: its fan-out counters, the
// topology's shard count and under-replicated shards, and replica health.
func (rt *Router) Metrics() map[string]any {
	shards := 0
	if topo := rt.topo.Load(); topo != nil {
		shards = len(topo.shards)
	}
	return map[string]any{
		"retries":          rt.retries.Load(),
		"hedges":           rt.hedges.Load(),
		"partials":         rt.partials.Load(),
		"shard_down":       rt.shardDown.Load(),
		"shards":           shards,
		"under_replicated": len(rt.UnderReplicated()),
		"replicas":         rt.healthy.Snapshot(),
		"replication":      rt.cfg.Replication,
	}
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.ErrLog != nil {
		rt.cfg.ErrLog.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}
