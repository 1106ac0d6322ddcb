package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"era"
	"era/internal/cluster/route"
	"era/internal/server"
)

// Servers, replicas and the router are in-process httptest servers on
// loopback, wired from the same constructors `era serve` and `era route`
// use, with the CLI's defaults.

const (
	engineCache = 4096 // `era serve -cache` default
	shardCount  = 3
	replicas    = 2
	// Replicas listen on fixed loopback ports. The router's hash ring places
	// shards by replica URL, so kernel-assigned ports would draw a new
	// placement on every run, and the placement decides the throughput: all
	// three primaries on one replica (1 draw in 4) measured 900 ops/s where
	// a 2/1 split measured 1350. These ports give a 2/1 split.
	replicaPort = 18331
)

var quiet = log.New(io.Discard, "", 0)

// node is one `era serve` equivalent.
type node struct {
	engine *server.Engine
	srv    *httptest.Server
}

// serveFiles loads the given index files (or, for a directory, every *.idx
// in it) into a fresh engine and serves it.
func serveFiles(cache int, path string, port int) (*node, error) {
	engine := server.NewEngine(cache)
	info, err := os.Stat(path)
	if err == nil && info.IsDir() {
		_, err = engine.LoadDir(path)
	} else if err == nil {
		_, err = engine.LoadFile(path)
	}
	if err != nil {
		engine.Close()
		return nil, err
	}
	return serveEngine(engine, port)
}

// serveEngine serves engine on the given loopback port, or on one the kernel
// picks when port is 0. A taken port is an error: another port would change
// the shard placement and with it the numbers. On error the engine is closed.
func serveEngine(engine *server.Engine, port int) (*node, error) {
	srv := httptest.NewUnstartedServer(server.NewHandlerOpts(engine, server.Options{ErrLog: quiet}))
	if port != 0 {
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			srv.Listener.Close()
			engine.Close()
			return nil, fmt.Errorf("replica port (is another benchmark running?): %w", err)
		}
		srv.Listener.Close()
		srv.Listener = l
	}
	srv.Start()
	return &node{engine: engine, srv: srv}, nil
}

// close shuts the listener, waits for outstanding requests, and only then
// unmaps the indexes.
func (n *node) close() {
	n.srv.Close()
	n.engine.Close()
}

// cluster is `era shard -splitdir` + N × `era serve -dir` + `era route`.
type cluster struct {
	nodes []*node
	rt    *route.Router
	front *httptest.Server
}

// writeShards builds docs as shardCount document-aligned shards with the
// CLI's build mode and writes each as NAME~i.idx under dir, as
// `era shard -splitdir` does. It also returns the in-process ShardedIndex.
func writeShards(docs [][]byte, dir string) (*era.ShardedIndex, error) {
	sx, err := era.BuildShardedCorpus(docs, &era.ShardConfig{
		Shards: shardCount,
		Build:  &era.Config{Mode: era.SharedDisk, Workers: runtime.NumCPU()},
	})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < sx.NumShards(); i++ {
		sh, _ := sx.Shard(i)
		name := fmt.Sprintf("%s~%d", corpusName, i)
		sh.SetName(name)
		if err := era.WriteFileV4(filepath.Join(dir, name+".idx"), sh); err != nil {
			return nil, err
		}
	}
	return sx, nil
}

// startCluster serves the shard files under dir from `replicas` nodes (every
// shard on every node; the ring decides who is asked) behind one router.
func startCluster(dir string, cache int) (*cluster, error) {
	c := &cluster{}
	var urls []string
	for i := 0; i < replicas; i++ {
		n, err := serveFiles(cache, dir, replicaPort+i)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		urls = append(urls, n.srv.URL)
	}
	rt, err := route.NewRouter(route.RouterConfig{Replicas: urls, Corpus: corpusName, Replication: 2, ErrLog: quiet})
	if err != nil {
		c.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = rt.Refresh(ctx)
	cancel()
	if err != nil {
		c.close()
		return nil, err
	}
	rt.Health().Start()
	c.rt = rt
	c.front = httptest.NewServer(rt.Handler())
	return c, nil
}

func (c *cluster) close() {
	if c.front != nil {
		c.front.Close()
	}
	if c.rt != nil {
		c.rt.Health().Stop()
	}
	for _, n := range c.nodes {
		n.close()
	}
}

// subRequests is the number of queries the replicas have answered.
func (c *cluster) subRequests() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.engine.Stats().Queries
	}
	return total
}

// routerCounters reads the router's /metricz.
func (c *cluster) routerCounters() (map[string]float64, error) {
	res, err := http.Get(c.front.URL + "/metricz")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(res.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// conn is one client's keep-alive connection: a client of its own whose
// transport may hold exactly one connection.
type conn struct {
	client *http.Client
	resp   bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and reads the whole response into c.resp.
func (c *conn) do(method, url string, body []byte) (status int, err error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	c.resp.Reset()
	if _, err := c.resp.ReadFrom(res.Body); err != nil {
		return 0, err
	}
	return res.StatusCode, nil
}

// appendOp writes one op of a request body. Patterns are letters of the
// generated alphabets, so JSON needs no escaping.
func appendOp(b []byte, c call, universe [][]byte) []byte {
	b = append(b, `"op":"`...)
	b = append(b, c.kind.String()...)
	b = append(b, `","pattern":"`...)
	b = append(b, universe[c.pat]...)
	b = append(b, '"')
	if c.kind == opOccurrences {
		b = append(b, `,"max":16`...)
	}
	return b
}

// httpCaller sends the membership stream to base as POST /v1/query and
// /v1/batch, one connection per client.
type httpCaller struct {
	base   string
	mirror string // when set, strict checks also require byte-equal bodies from this server
	want   *expect
	per    []httpState
}

type httpState struct {
	s      *stream
	conn   *conn
	body   []byte
	status int
	err    error
	single server.QueryResponse
	batch  struct {
		Results []server.QueryResponse `json:"results"`
	}
	mirror *conn
}

func newHTTPCaller(base, mirror string, want *expect, clients []*loopClient) *httpCaller {
	hc := &httpCaller{base: base, mirror: mirror, want: want, per: make([]httpState, len(clients))}
	for i, cl := range clients {
		hc.per[i] = httpState{s: cl.s, conn: newConn(), mirror: newConn()}
	}
	return hc
}

func (hc *httpCaller) close() {
	for i := range hc.per {
		hc.per[i].conn.close()
		hc.per[i].mirror.close()
	}
}

func endpoint(c call) string {
	if c.kind == opBatch {
		return "/v1/batch"
	}
	return "/v1/query"
}

func (hc *httpCaller) call(ci int, c call) {
	st := &hc.per[ci]
	b := append(st.body[:0], `{"index":"`+corpusName+`",`...)
	if c.kind == opBatch {
		b = append(b, `"ops":[`...)
		for i, bc := range st.s.batches[c.pat] {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '{')
			b = appendOp(b, bc, hc.want.universe)
			b = append(b, '}')
		}
		b = append(b, ']')
	} else {
		b = appendOp(b, c, hc.want.universe)
	}
	st.body = append(b, '}')
	st.status, st.err = st.conn.do(http.MethodPost, hc.base+endpoint(c), st.body)
}

func (hc *httpCaller) checkWire(c call, r *server.QueryResponse, strict bool) bool {
	count := 0
	if r.Count != nil {
		count = *r.Count
	}
	return !r.Partial && hc.want.check(c, r.Found, count, r.Occurrences, strict)
}

func (hc *httpCaller) verify(ci int, c call, strict bool) bool {
	st := &hc.per[ci]
	if st.err != nil || st.status != http.StatusOK {
		return false
	}
	if c.kind == opBatch {
		st.batch.Results = nil // Unmarshal does not zero elements it reuses
		if err := json.Unmarshal(st.conn.resp.Bytes(), &st.batch); err != nil || len(st.batch.Results) != batchSize {
			return false
		}
		for i, bc := range st.s.batches[c.pat] {
			if !hc.checkWire(bc, &st.batch.Results[i], strict) {
				return false
			}
		}
	} else {
		st.single = server.QueryResponse{}
		if err := json.Unmarshal(st.conn.resp.Bytes(), &st.single); err != nil || !hc.checkWire(c, &st.single, strict) {
			return false
		}
	}
	if strict && hc.mirror != "" {
		status, err := st.mirror.do(http.MethodPost, hc.mirror+endpoint(c), st.body)
		return err == nil && status == http.StatusOK && bytes.Equal(st.mirror.resp.Bytes(), st.conn.resp.Bytes())
	}
	return true
}

// httpWorkload is point (one server) or routed (router over replicas). Both
// replay exactly the lookup workload's op stream.
type httpWorkload struct {
	routed bool
	memberFixture
	mono *node
	sx   *era.ShardedIndex
	cl   *cluster
	cr   *httpCaller
}

func (w *httpWorkload) setUp(e *env) (err error) {
	defer func() {
		if err != nil {
			w.tearDown()
		}
	}()
	if err = w.memberFixture.setUp(e); err != nil {
		return err
	}
	// The mono server is the point workload's target and the routed
	// workload's byte-equality reference.
	if w.mono, err = serveFiles(engineCache, w.path, 0); err != nil {
		return err
	}
	base, mirror := w.mono.srv.URL, ""
	if w.routed {
		shardDir := filepath.Join(e.dir, "shards")
		if w.sx, err = writeShards(w.corp.docs, shardDir); err != nil {
			return err
		}
		if w.cl, err = startCluster(shardDir, engineCache); err != nil {
			return err
		}
		base, mirror = w.cl.front.URL, w.mono.srv.URL
	}
	w.cr = newHTTPCaller(base, mirror, w.want, w.clients)
	return nil
}

func (w *httpWorkload) tearDown() {
	if w.cr != nil {
		w.cr.close()
	}
	if w.cl != nil {
		w.cl.close()
	}
	if w.mono != nil {
		w.mono.close()
	}
	w.memberFixture.tearDown()
}

func (w *httpWorkload) layer() string {
	if w.routed {
		return "route"
	}
	return "server.http"
}

// The requests per second one client completes on the box this was sized on
// (2 vCPUs, 2 clients); they fix the requests per trial.
const (
	pointRate  = 11e3
	routedRate = 460
)

func (w *httpWorkload) trial(dur time.Duration, strict bool, spans *spanLog) trialResult {
	rate := pointRate
	if w.routed {
		rate = routedRate
	}
	return closedLoop(w.clients, rate, dur, strict, spans, w.layer(), w.cr)
}

func (w *httpWorkload) tail() (float64, bool) { return 99, false }

func (w *httpWorkload) layers(spans *spanLog, out map[string]float64) error {
	return runLadder(&w.memberFixture, ladderTop{mono: w.mono, cl: w.cl, sx: w.sx}, spans, out)
}
