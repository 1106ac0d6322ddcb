package server

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"era"
)

// v4Fixture writes a v4 index file and returns its path.
func v4Fixture(t *testing.T, name string) string {
	t.Helper()
	idx, err := era.BuildCorpus([][]byte{
		[]byte("GATTACAGATTACA"),
		[]byte("CATTAGACATTAGA"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetName(name)
	p := filepath.Join(t.TempDir(), name+".idx")
	if err := era.WriteFileV4(p, idx); err != nil {
		t.Fatal(err)
	}
	return p
}

// metricsResponse is an engine's /metricz: the handler's ops and panics
// beside the engine's counters and per-index memory.
type metricsResponse struct {
	Engine  Stats                   `json:"engine"`
	Ops     map[string]HistSnapshot `json:"ops"`
	Indexes []indexMemInfo          `json:"indexes"`
	Panics  int64                   `json:"panics"`
}

// TestMetricz drives queries over a mapped v4 index and checks the
// /metricz payload: its one shape, per-op latency histograms populate and
// the index's mapped byte count is visible.
func TestMetricz(t *testing.T) {
	engine := NewEngine(16)
	if _, err := engine.LoadFile(v4Fixture(t, "mz")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engine.Close() })
	srv := httptest.NewServer(NewHandler(engine))
	defer srv.Close()

	for i := 0; i < 5; i++ {
		res, err := http.Post(srv.URL+"/v1/query", "application/json",
			strings.NewReader(`{"index":"mz","op":"count","pattern":"ATTA"}`))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", res.StatusCode)
		}
	}
	res, err := http.Post(srv.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"index":"mz","ops":[{"op":"contains","pattern":"GAT"},{"op":"occurrences","pattern":"TA","max":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()

	mres, err := http.Get(srv.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	raw, err := io.ReadAll(mres.Body)
	if err != nil {
		t.Fatal(err)
	}
	// One shape: the handler's ops and panics beside the engine's fields,
	// every one of them at the top level and nothing else there.
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if keys := slices.Sorted(maps.Keys(top)); !slices.Equal(keys, []string{"engine", "indexes", "ops", "panics"}) {
		t.Errorf("metricz has top-level fields %v, want engine, indexes, ops, panics", keys)
	}
	var m metricsResponse
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Panics != 0 {
		t.Errorf("panics = %d with none recovered", m.Panics)
	}
	if m.Ops["query"].Count != 5 {
		t.Errorf("query histogram count = %d, want 5", m.Ops["query"].Count)
	}
	if m.Ops["batch"].Count != 1 {
		t.Errorf("batch histogram count = %d, want 1", m.Ops["batch"].Count)
	}
	if q := m.Ops["query"]; q.Observed && (q.P99Us < q.P90Us || q.P90Us < q.P50Us) {
		t.Errorf("query quantiles inconsistent: %+v", q)
	}
	if len(m.Indexes) != 1 {
		t.Fatalf("metricz lists %d indexes, want 1", len(m.Indexes))
	}
	if m.Indexes[0].MappedBytes <= 0 {
		t.Errorf("mapped index reports mapped_bytes = %d, want > 0", m.Indexes[0].MappedBytes)
	}
	if m.Engine.Queries == 0 {
		t.Error("engine counters absent from metricz")
	}
}

// TestLatencyHistQuantiles pins the bucket math.
func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	for i := 0; i < 90; i++ {
		h.observe(3 * time.Microsecond) // bucket [2,4)µs → upper bound 3
	}
	for i := 0; i < 10; i++ {
		h.observe(1000 * time.Microsecond) // bucket [512,1024)µs → 1023
	}
	s := h.snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if s.P50Us != 3 || s.P90Us != 3 {
		t.Errorf("p50/p90 = %d/%d, want 3/3", s.P50Us, s.P90Us)
	}
	if s.P99Us != 1023 {
		t.Errorf("p99 = %d, want 1023", s.P99Us)
	}
}

// TestEngineCloseLifecycle pins the refcounted retirement discipline: a hot
// reload with no queries in flight releases the replaced mapping
// immediately (the catalog reference was the last one), and Engine.Close —
// the post-drain backstop — closes whatever is still held, exactly once.
func TestEngineCloseLifecycle(t *testing.T) {
	engine := NewEngine(0)
	p := v4Fixture(t, "lc")
	if _, err := engine.LoadFile(p); err != nil {
		t.Fatal(err)
	}
	first, _ := engine.Get("lc")
	if first.MappedBytes() == 0 {
		t.Fatal("fixture did not open as a mapped index")
	}
	// Hot reload under the same name with nothing in flight: the replaced
	// mapping must drain and unmap right away, not linger until Close.
	if _, err := engine.LoadFile(p); err != nil {
		t.Fatal(err)
	}
	if got := first.MappedBytes(); got != 0 {
		t.Fatalf("retired index still maps %d bytes — retirement must release a drained mapping", got)
	}
	second, _ := engine.Get("lc")
	if got, want := engine.MappedBytes(), second.MappedBytes(); got != want {
		t.Fatalf("engine MappedBytes() = %d, want the live catalog's %d", got, want)
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	if second.MappedBytes() != 0 {
		t.Error("Close left mappings open")
	}
	if err := engine.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := engine.Load(second); err == nil {
		t.Error("Load succeeded on a closed engine")
	}
}
