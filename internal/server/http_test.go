package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"era"
)

// newTestServer starts the HTTP API over a fresh engine with one 2000-symbol
// DNA index named "dna".
func newTestServer(t *testing.T) (*httptest.Server, *era.Index) {
	t.Helper()
	idx := buildIndex(t, "dna", 2000, 1)
	e := NewEngine(256)
	if err := e.Load(idx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(e))
	t.Cleanup(ts.Close)
	return ts, idx
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func TestHTTPQuery(t *testing.T) {
	ts, idx := newTestServer(t)

	status, out := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"index": "dna", "op": "count", "pattern": "TG",
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	if int(out["count"].(float64)) != idx.Count([]byte("TG")) {
		t.Errorf("count = %v, want %d", out["count"], idx.Count([]byte("TG")))
	}

	status, out = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"index": "dna", "op": "occurrences", "pattern": "ACGT", "max": 2,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	occ, _ := idx.Occurrences([]byte("ACGT"))
	if got := out["occurrences"].([]any); len(occ) >= 2 && len(got) != 2 {
		t.Errorf("occurrences = %v, want 2 capped offsets of %v", got, occ)
	}
	if len(occ) > 2 && out["truncated"] != true {
		t.Error("truncated flag not set")
	}
}

func TestHTTPBatch(t *testing.T) {
	ts, idx := newTestServer(t)
	status, out := postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"index": "dna",
		"ops": []map[string]any{
			{"op": "contains", "pattern": "TG"},
			{"op": "count", "pattern": "GATTACAGATTACA"},
			{"op": "occurrences", "pattern": "AC"},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	results := out["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	first := results[0].(map[string]any)
	if first["found"] != idx.Contains([]byte("TG")) {
		t.Errorf("batch contains = %v", first["found"])
	}
	third := results[2].(map[string]any)
	if int(third["count"].(float64)) != idx.Count([]byte("AC")) {
		t.Errorf("batch occurrences count = %v, want %d", third["count"], idx.Count([]byte("AC")))
	}
}

func TestHTTPIndexListingAndHealth(t *testing.T) {
	ts, idx := newTestServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	var listing IndexList
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Indexes) != 1 || listing.Indexes[0].Name != "dna" {
		t.Fatalf("indexes = %+v", listing.Indexes)
	}
	if listing.Indexes[0].Symbols != idx.Len() || listing.Indexes[0].TreeNodes != idx.TreeNodes() ||
		listing.Indexes[0].AlphabetSymbols != "ACGT" {
		t.Errorf("index info = %+v", listing.Indexes[0])
	}

	resp, err = http.Get(ts.URL + "/v1/indexes/dna")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/indexes/dna: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// The engine counters are /metricz's "engine" object; /v1/stats, which
	// repeated it, is gone.
	resp, err = http.Get(ts.URL + "/metricz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricz: %v %v", resp.StatusCode, err)
	}
	var m metricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Engine.Indexes != 1 {
		t.Errorf("metricz engine = %+v", m.Engine)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/stats = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	status, out := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"index": "nope", "op": "count", "pattern": "TG",
	})
	if status != http.StatusNotFound {
		t.Errorf("unknown index: status %d, want 404 (%v)", status, out)
	}

	status, _ = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"index": "dna", "op": "frobnicate", "pattern": "TG",
	})
	if status != http.StatusBadRequest {
		t.Errorf("bad op: status %d, want 400", status)
	}

	status, _ = postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"index": "dna", "ops": []map[string]any{},
	})
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", status)
	}

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/indexes/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown index detail: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPConcurrentClients drives the full serve path with 8 concurrent
// HTTP clients issuing mixed single and batch queries (the acceptance bar:
// ≥ 8 clients, correct answers, clean under -race).
func TestHTTPConcurrentClients(t *testing.T) {
	ts, idx := newTestServer(t)

	pats := []string{"TG", "AC", "ACG", "GATT", "TTTTTTTTTTTT", "CG", "A", "GGC"}
	wantCount := make([]int, len(pats))
	for i, p := range pats {
		wantCount[i] = idx.Count([]byte(p))
	}

	const clients = 8
	const rounds = 40
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				pi := (c + r) % len(pats)
				raw, _ := json.Marshal(map[string]any{
					"index": "dna", "op": "count", "pattern": pats[pi],
				})
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(raw))
				if err != nil {
					errc <- err
					return
				}
				var out struct {
					Found bool `json:"found"`
					Count *int `json:"count"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if out.Count == nil || *out.Count != wantCount[pi] {
					errc <- fmt.Errorf("client %d: count(%s) = %v, want %d", c, pats[pi], out.Count, wantCount[pi])
					return
				}

				// Every 8th round, a batch mixing all patterns.
				if r%8 == 0 {
					ops := make([]map[string]any, len(pats))
					for i, p := range pats {
						ops[i] = map[string]any{"op": "count", "pattern": p}
					}
					raw, _ := json.Marshal(map[string]any{"index": "dna", "ops": ops})
					resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(raw))
					if err != nil {
						errc <- err
						return
					}
					var bout struct {
						Results []struct {
							Count *int `json:"count"`
						} `json:"results"`
					}
					err = json.NewDecoder(resp.Body).Decode(&bout)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					if len(bout.Results) != len(pats) {
						errc <- fmt.Errorf("client %d: %d batch results, want %d", c, len(bout.Results), len(pats))
						return
					}
					for i := range pats {
						if bout.Results[i].Count == nil || *bout.Results[i].Count != wantCount[i] {
							errc <- fmt.Errorf("client %d: batch count(%s) = %v, want %d", c, pats[i], bout.Results[i].Count, wantCount[i])
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestHTTPPatternValidation pins the serve-path validation: empty patterns
// and patterns with bytes outside the target index's alphabet are a 400
// naming the offending byte, instead of the old surprising found-everything
// (empty) or silent not-found (foreign byte) answers.
func TestHTTPPatternValidation(t *testing.T) {
	ts, _ := newTestServer(t) // DNA alphabet

	status, out := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"index": "dna", "op": "contains", "pattern": "",
	})
	if status != http.StatusBadRequest {
		t.Errorf("empty pattern: status %d, want 400 (%v)", status, out)
	}

	status, out = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"index": "dna", "op": "count", "pattern": "TGX",
	})
	if status != http.StatusBadRequest {
		t.Errorf("foreign byte: status %d, want 400 (%v)", status, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "'X'") && !strings.Contains(msg, `"X"`) {
		t.Errorf("foreign-byte error does not name the byte: %v", out)
	}

	// The terminator byte is outside every alphabet: now an explicit 400.
	status, _ = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"index": "dna", "op": "count", "pattern": "TG$",
	})
	if status != http.StatusBadRequest {
		t.Errorf("terminator byte: status %d, want 400", status)
	}

	// In a batch the error names the offending op.
	status, out = postJSON(t, ts.URL+"/v1/batch", map[string]any{
		"index": "dna",
		"ops": []map[string]any{
			{"op": "contains", "pattern": "TG"},
			{"op": "count", "pattern": "TGz"},
		},
	})
	if status != http.StatusBadRequest {
		t.Errorf("batch foreign byte: status %d, want 400 (%v)", status, out)
	}
	msg, _ := out["error"].(string)
	if !strings.Contains(msg, "op 1") {
		t.Errorf("batch error does not name the op: %v", out)
	}

	// Unknown index outranks pattern validation: addressing comes first.
	status, _ = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"index": "ghost", "op": "count", "pattern": "",
	})
	if status != http.StatusNotFound {
		t.Errorf("unknown index with bad pattern: status %d, want 404", status)
	}
}

// TestHTTPQueryErrorStatusMapping pins the 404/500 split: only the
// unknown-index sentinel is a 404; any other backend failure is a 500, not
// masqueraded as "not found", unless it carries its own status.
func TestHTTPQueryErrorStatusMapping(t *testing.T) {
	h := &api{}
	rec := httptest.NewRecorder()
	h.writeQueryError(rec, fmt.Errorf("wrapped: %w", ErrUnknownIndex))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown-index error: status %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.writeQueryError(rec, &era.OpError{Op: 2, Err: fmt.Errorf("wrapped: %w", era.ErrInvalidQuery)})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("invalid-query error: status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.writeQueryError(rec, &StatusError{Status: http.StatusBadGateway, Msg: "fan-out failed"})
	if rec.Code != http.StatusBadGateway {
		t.Errorf("status error: status %d, want 502", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.writeQueryError(rec, errors.New("disk exploded"))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("internal error: status %d, want 500", rec.Code)
	}
}

// TestHTTPTruncatedAcrossCacheHitAndMiss pins the truncated flag for the
// same pattern under differing max caps, on both the cache-miss and the
// cache-hit path: max is part of the cache key, so a capped result must
// never satisfy (or poison) an uncapped request.
func TestHTTPTruncatedAcrossCacheHitAndMiss(t *testing.T) {
	ts, idx := newTestServer(t)
	pat := "TG"
	occ, _ := idx.Occurrences([]byte(pat))
	if len(occ) <= 2 {
		t.Fatalf("test pattern %q has only %d occurrences", pat, len(occ))
	}

	capped := map[string]any{"index": "dna", "op": "occurrences", "pattern": pat, "max": 2}
	uncapped := map[string]any{"index": "dna", "op": "occurrences", "pattern": pat}

	check := func(label string, body map[string]any, wantLen int, wantTrunc bool) {
		t.Helper()
		status, out := postJSON(t, ts.URL+"/v1/query", body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", label, status, out)
		}
		got := out["occurrences"].([]any)
		if len(got) != wantLen {
			t.Errorf("%s: %d occurrences, want %d", label, len(got), wantLen)
		}
		trunc, _ := out["truncated"].(bool)
		if trunc != wantTrunc {
			t.Errorf("%s: truncated = %v, want %v", label, trunc, wantTrunc)
		}
		if int(out["count"].(float64)) != len(occ) {
			t.Errorf("%s: count = %v, want %d (full count regardless of cap)", label, out["count"], len(occ))
		}
	}

	check("capped miss", capped, 2, true)
	check("capped hit", capped, 2, true) // served from cache
	check("uncapped miss", uncapped, len(occ), false)
	check("uncapped hit", uncapped, len(occ), false)
	check("capped hit again", capped, 2, true)
}

// TestHTTPServesShardedIndex drives a sharded corpus through the unchanged
// HTTP API: same endpoints, same wire format, fan-out/merge behind them.
func TestHTTPServesShardedIndex(t *testing.T) {
	sx := buildShardedIndex(t, "corpus", 8, 400, 3)
	e := NewEngine(64)
	if err := e.Load(sx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(e))
	t.Cleanup(ts.Close)

	pat := "GAT"
	status, out := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"index": "corpus", "op": "count", "pattern": pat,
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	if int(out["count"].(float64)) != sx.Count([]byte(pat)) {
		t.Errorf("count = %v, want %d", out["count"], sx.Count([]byte(pat)))
	}

	resp, err := http.Get(ts.URL + "/v1/indexes/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var info IndexInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Documents != sx.NumDocs() || info.Symbols != sx.Len() || info.Shards != sx.NumShards() {
		t.Errorf("index info = %+v, want %d docs / %d symbols / %d shards", info, sx.NumDocs(), sx.Len(), sx.NumShards())
	}
}

// TestHTTPListingGolden pins the listing bytes a replica sends for each
// kind of index: a whole image (fingerprint, no range), a range shard
// (range and fingerprint), a sharded index (its shard count) and a live
// index (a sealed tier's nodes, none for its memtable).
func TestHTTPListingGolden(t *testing.T) {
	docs := [][]byte{[]byte("GATTACAGATTACA"), []byte("CCCGATTACACCC"), []byte("TTAGGGAC")}
	mono, err := era.BuildCorpus(docs, nil)
	if err != nil {
		t.Fatal(err)
	}
	mono.SetName("mono")
	sharded := func(name string) *era.ShardedIndex {
		sx, err := era.BuildShardedCorpus(docs, &era.ShardConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		sx.SetName(name)
		return sx
	}
	shard, _ := sharded("").Shard(1)
	shard.SetName("mono~1")
	lx, err := era.NewLive("live", &era.LiveConfig{MemtableMaxDocs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][][]byte{docs[:2], docs[2:]} {
		if _, err := lx.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(0)
	for _, idx := range []era.Queryable{mono, shard, sharded("sharded"), lx} {
		if err := e.Load(idx); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { e.Close() })
	ts := httptest.NewServer(NewHandler(e))
	t.Cleanup(ts.Close)

	golden := []struct{ name, entry string }{
		{"live", `{"name":"live","symbols":36,"documents":3,"alphabet":"DNA","alphabet_symbols":"ACGT","tree_nodes":47}`},
		{"mono", `{"name":"mono","symbols":36,"documents":3,"alphabet":"DNA","alphabet_symbols":"ACGT","tree_nodes":61,"fingerprint":"2c76b4e4"}`},
		{"mono~1", `{"name":"mono~1","symbols":36,"documents":3,"alphabet":"DNA","alphabet_symbols":"ACGT","tree_nodes":35,"range":{"lo":"CC","hi":""},"fingerprint":"0e04fce6"}`},
		{"sharded", `{"name":"sharded","symbols":36,"documents":3,"alphabet":"DNA","alphabet_symbols":"ACGT","tree_nodes":62,"shards":2}`},
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s %v", path, resp.StatusCode, b, err)
		}
		return string(b)
	}
	var entries []string
	for _, g := range golden {
		entries = append(entries, g.entry)
		if got := get("/v1/indexes/" + g.name); got != g.entry+"\n" {
			t.Errorf("GET /v1/indexes/%s = %s, want %s", g.name, got, g.entry)
		}
	}
	if got, want := get("/v1/indexes"), `{"indexes":[`+strings.Join(entries, ",")+"]}\n"; got != want {
		t.Errorf("GET /v1/indexes = %s, want %s", got, want)
	}
}

// TestHTTPLiveMutations exercises the mutation endpoints over a live index:
// append returns the assigned ids, queries observe the mutation (no stale
// cache hit), delete tombstones by id, and static indexes reject both.
func TestHTTPLiveMutations(t *testing.T) {
	e := NewEngine(256)
	lx, err := era.NewLive("live", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load(lx); err != nil {
		t.Fatal(err)
	}
	if err := e.Load(buildIndex(t, "static", 500, 3)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ts := httptest.NewServer(NewHandler(e))
	t.Cleanup(ts.Close)

	count := func() float64 {
		t.Helper()
		code, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
			"index": "live", "op": "count", "pattern": "GATTACA",
		})
		if code != http.StatusOK {
			t.Fatalf("query status %d: %v", code, body)
		}
		return body["count"].(float64)
	}
	if got := count(); got != 0 {
		t.Fatalf("empty live index counts %v", got)
	}

	code, body := postJSON(t, ts.URL+"/v1/indexes/live/docs", map[string]any{
		"docs": []string{"GATTACAGATTACA", "CCCC"},
	})
	if code != http.StatusOK {
		t.Fatalf("append status %d: %v", code, body)
	}
	ids, ok := body["ids"].([]any)
	if !ok || len(ids) != 2 {
		t.Fatalf("append response %v, want 2 ids", body)
	}
	if got := count(); got != 2 {
		t.Fatalf("count after append = %v, want 2 (stale cache?)", got)
	}

	req, err := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/indexes/live/docs/%d", ts.URL, uint64(ids[0].(float64))), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || del["deleted"] != true {
		t.Fatalf("delete status %d body %v", resp.StatusCode, del)
	}
	if got := count(); got != 0 {
		t.Fatalf("count after delete = %v, want 0", got)
	}

	// Error mapping: static index → 400 not mutable; bad document → 400;
	// unknown index → 404; malformed id → 400; empty docs → 400.
	for _, tc := range []struct {
		name string
		url  string
		body any
		want int
	}{
		{"static append", "/v1/indexes/static/docs", map[string]any{"docs": []string{"A"}}, http.StatusBadRequest},
		{"bad document", "/v1/indexes/live/docs", map[string]any{"docs": []string{"AC$GT"}}, http.StatusBadRequest},
		{"unknown index", "/v1/indexes/nosuch/docs", map[string]any{"docs": []string{"A"}}, http.StatusNotFound},
		{"empty docs", "/v1/indexes/live/docs", map[string]any{"docs": []string{}}, http.StatusBadRequest},
	} {
		if code, body := postJSON(t, ts.URL+tc.url, tc.body); code != tc.want {
			t.Errorf("%s: status %d (want %d): %v", tc.name, code, tc.want, body)
		}
	}
	for _, tc := range []struct {
		name string
		url  string
		want int
	}{
		{"static delete", "/v1/indexes/static/docs/0", http.StatusBadRequest},
		{"unknown delete", "/v1/indexes/nosuch/docs/0", http.StatusNotFound},
		{"bad id", "/v1/indexes/live/docs/abc", http.StatusBadRequest},
	} {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+tc.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Metricz reports the new op histograms.
	mres, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(mres.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Ops["append"].Count == 0 || m.Ops["delete"].Count == 0 {
		t.Errorf("append/delete histograms absent: append=%d delete=%d",
			m.Ops["append"].Count, m.Ops["delete"].Count)
	}
}

// TestHTTPAnalytics drives the /v1/analytics endpoint end to end: answers
// match the library executor, pattern-less ops are no longer rejected by a
// blanket empty-pattern check, malformed per-op parameters map to 400,
// mutation invalidates cached analytics answers, and /metricz grows a
// histogram per analytics op kind.
func TestHTTPAnalytics(t *testing.T) {
	e := NewEngine(256)
	idx := buildIndex(t, "dna", 2000, 1)
	if err := e.Load(idx); err != nil {
		t.Fatal(err)
	}
	lx, err := era.NewLive("alive", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lx.Append([][]byte{[]byte("ACACACTT")}); err != nil {
		t.Fatal(err)
	}
	if err := e.Load(lx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ts := httptest.NewServer(NewHandler(e))
	t.Cleanup(ts.Close)

	// topk against the library answer.
	wantTop, err := idx.Analytics(context.Background(), era.Query{Kind: era.OpTopK, K: 3, MinLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	code, body := postJSON(t, ts.URL+"/v1/analytics", map[string]any{
		"index": "dna", "op": "topk", "k": 3, "min_len": 4,
	})
	if code != http.StatusOK {
		t.Fatalf("topk status %d: %v", code, body)
	}
	top, ok := body["top"].([]any)
	if !ok || len(top) != len(wantTop.Top) {
		t.Fatalf("topk response %v, want %d entries", body, len(wantTop.Top))
	}
	first := top[0].(map[string]any)
	if first["pattern"] != string(wantTop.Top[0].Pattern) || int(first["count"].(float64)) != wantTop.Top[0].Count {
		t.Errorf("topk[0] = %v, want %q/%d", first, wantTop.Top[0].Pattern, wantTop.Top[0].Count)
	}

	// lrs is pattern-less: the per-op validation must accept it (the old
	// blanket empty-pattern 400 is the regression this guards against).
	wantLRS, err := idx.Analytics(context.Background(), era.Query{Kind: era.OpLongestRepeat})
	if err != nil {
		t.Fatal(err)
	}
	code, body = postJSON(t, ts.URL+"/v1/analytics", map[string]any{
		"index": "dna", "op": "lrs",
	})
	if code != http.StatusOK {
		t.Fatalf("lrs status %d: %v", code, body)
	}
	if body["pattern"] != string(wantLRS.Pattern) {
		t.Errorf("lrs pattern = %v, want %q", body["pattern"], wantLRS.Pattern)
	}

	// The same pattern-less op through /v1/query must also pass validation.
	code, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
		"index": "dna", "op": "lrs",
	})
	if code != http.StatusOK {
		t.Fatalf("lrs via /v1/query status %d: %v", code, body)
	}

	// docfreq and mismatch round-trip their parameter shapes.
	code, body = postJSON(t, ts.URL+"/v1/analytics", map[string]any{
		"index": "dna", "op": "docfreq", "patterns": []string{"ACGT", "TTTTTTTTTTTT"},
	})
	if code != http.StatusOK {
		t.Fatalf("docfreq status %d: %v", code, body)
	}
	if stats, ok := body["stats"].([]any); !ok || len(stats) != 2 {
		t.Fatalf("docfreq stats = %v, want 2 entries", body)
	}
	code, body = postJSON(t, ts.URL+"/v1/analytics", map[string]any{
		"index": "dna", "op": "mismatch", "pattern": "ACGTAC", "k": 1, "max": 5,
	})
	if code != http.StatusOK {
		t.Fatalf("mismatch status %d: %v", code, body)
	}

	// Client errors: membership op on /v1/analytics, malformed parameters,
	// empty pattern where the op does need one.
	for _, tc := range []struct {
		name string
		req  map[string]any
	}{
		{"membership op", map[string]any{"index": "dna", "op": "count", "pattern": "AC"}},
		{"topk zero k", map[string]any{"index": "dna", "op": "topk", "min_len": 4}},
		{"topk zero min_len", map[string]any{"index": "dna", "op": "topk", "k": 5}},
		{"mismatch k too big", map[string]any{"index": "dna", "op": "mismatch", "pattern": "AC", "k": 3}},
		{"mismatch empty pattern", map[string]any{"index": "dna", "op": "mismatch", "k": 1}},
		{"lcs same doc", map[string]any{"index": "dna", "op": "lcs", "doc_a": 0, "doc_b": 0}},
		{"docfreq empty set", map[string]any{"index": "dna", "op": "docfreq"}},
	} {
		code, body := postJSON(t, ts.URL+"/v1/analytics", tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", tc.name, code, body)
		}
	}

	// Mutation invalidates cached analytics answers: the live index's LRS
	// changes after an append, and the second query must see it.
	lrsLive := func() string {
		t.Helper()
		code, body := postJSON(t, ts.URL+"/v1/analytics", map[string]any{
			"index": "alive", "op": "lrs",
		})
		if code != http.StatusOK {
			t.Fatalf("live lrs status %d: %v", code, body)
		}
		p, _ := body["pattern"].(string)
		return p
	}
	before := lrsLive()
	if before != "ACAC" {
		t.Fatalf("live LRS = %q, want ACAC", before)
	}
	if got := lrsLive(); got != before { // cache-hit path answers identically
		t.Fatalf("cached live LRS = %q, want %q", got, before)
	}
	code, body = postJSON(t, ts.URL+"/v1/indexes/alive/docs", map[string]any{
		"docs": []string{"GGGGGGGG"},
	})
	if code != http.StatusOK {
		t.Fatalf("append status %d: %v", code, body)
	}
	if got := lrsLive(); got != "GGGGGGG" {
		t.Errorf("live LRS after append = %q, want GGGGGGG (stale cache?)", got)
	}

	// Every exercised analytics op has its own /metricz histogram.
	mres, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	var m metricsResponse
	if err := json.NewDecoder(mres.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"analytics:topk", "analytics:lrs", "analytics:docfreq", "analytics:mismatch"} {
		if m.Ops[op].Count == 0 {
			t.Errorf("%s histogram absent or empty", op)
		}
	}
	if _, present := m.Ops["analytics:lcs"]; !present {
		t.Error("analytics:lcs histogram not reported")
	}
}
