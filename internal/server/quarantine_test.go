package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"era"
)

// TestQuarantineServesHealthyCatalog pins the startup contract: a damaged
// file in the index directory is renamed aside and reported, a file that is
// intact but in a format no longer read is reported with the rebuild message
// and left in place, and the rest of the catalog loads and serves.
func TestQuarantineServesHealthyCatalog(t *testing.T) {
	dir := t.TempDir()
	healthy := buildIndex(t, "healthy", 2000, 1)
	if err := era.WriteFileV4(filepath.Join(dir, "healthy.idx"), healthy); err != nil {
		t.Fatal(err)
	}
	if err := era.WriteFileV4(filepath.Join(dir, "corrupt.idx"), buildIndex(t, "doomed", 2000, 2)); err != nil {
		t.Fatal(err)
	}
	// Truncating to half is content damage the open detects immediately.
	img, err := os.ReadFile(filepath.Join(dir, "corrupt.idx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corrupt.idx"), img[:len(img)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Two intact files nothing reads any more: an image from before the
	// suffix array was a section of its own, and a v2 header (all of a v2
	// file that is looked at).
	old, err := os.ReadFile(filepath.Join("..", "..", "testdata", "must-rebuild", "half-records", "mono.idx"))
	if err != nil {
		t.Fatal(err)
	}
	v2 := []byte{'I', 'A', 'R', 'E', 2, 0, 0, 0}
	for name, b := range map[string][]byte{"old.idx": old, "v2.idx": v2} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e := NewEngine(128)
	defer e.Close()
	names, err := e.LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), "quarantined as corrupt.idx.quarantine") {
		t.Fatalf("LoadDir error = %v, want a quarantine report for corrupt.idx", err)
	}
	if !errors.Is(err, era.ErrMustRebuild) || !strings.Contains(err.Error(), "format v2") || !strings.Contains(err.Error(), "predates the current tree layout") {
		t.Fatalf("LoadDir error = %v, want rebuild reports for old.idx and v2.idx", err)
	}
	for _, name := range []string{"old.idx", "v2.idx"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s is intact and must stay in place: %v", name, err)
		}
	}
	if len(names) != 1 || names[0] != "healthy" {
		t.Fatalf("loaded %v, want [healthy]", names)
	}
	if _, err := os.Stat(filepath.Join(dir, "corrupt.idx.quarantine")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "corrupt.idx")); !os.IsNotExist(err) {
		t.Fatalf("damaged file still in place: %v", err)
	}
	if q := e.Stats().Quarantined; len(q) != 1 || q[0] != "corrupt.idx" {
		t.Fatalf("Stats.Quarantined = %v, want [corrupt.idx]", q)
	}

	pat := []byte("TGA")
	res, err := e.Query("healthy", era.Op{Kind: era.OpCount, Pattern: pat})
	if err != nil {
		t.Fatalf("query against surviving catalog: %v", err)
	}
	if res.Count != healthy.Count(pat) {
		t.Fatalf("Count = %d, want %d", res.Count, healthy.Count(pat))
	}
}

// TestQuarantineLazyCorruptionMidServe pins the first-touch path: damage
// that lands after load (so the header verified clean) is caught by the
// lazy section checksums on the first query, the request fails with
// ErrCorruptIndex instead of a wrong answer, and the index is taken out of
// service and renamed aside.
func TestQuarantineLazyCorruptionMidServe(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lazy.idx")
	if err := era.WriteFileV4(path, buildIndex(t, "lazy", 2000, 3)); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(128)
	defer e.Close()
	name, err := e.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte through the file; the read-only MAP_SHARED mapping sees
	// it, modeling media corruption between load and first use.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, err = e.Query(name, era.Op{Kind: era.OpCount, Pattern: []byte("TGA")})
	if !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("query over corrupted mapping: %v, want ErrCorruptIndex", err)
	}
	// Out of service: the entry is unloaded, the file renamed aside.
	if _, err := e.Query(name, era.Op{Kind: era.OpCount, Pattern: []byte("TGA")}); !errors.Is(err, ErrUnknownIndex) {
		t.Fatalf("query after quarantine: %v, want ErrUnknownIndex", err)
	}
	if _, err := os.Stat(path + ".quarantine"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if q := e.Stats().Quarantined; len(q) != 1 || q[0] != "lazy.idx" {
		t.Fatalf("Stats.Quarantined = %v, want [lazy.idx]", q)
	}
}

// blockingLive wraps a live index so its Append parks until the test says
// go, holding an engine append slot occupied.
type blockingLive struct {
	*era.LiveIndex
	entered chan struct{}
	gate    chan struct{}
}

func (b *blockingLive) Append(docs [][]byte) ([]uint64, error) {
	b.entered <- struct{}{}
	<-b.gate
	return b.LiveIndex.Append(docs)
}

func newBlockingLive(t *testing.T) *blockingLive {
	t.Helper()
	lx, err := era.NewLive("live", nil)
	if err != nil {
		t.Fatal(err)
	}
	// entered is buffered so appends after the gate opens don't block on an
	// absent listener.
	return &blockingLive{LiveIndex: lx, entered: make(chan struct{}, MaxInflightAppends), gate: make(chan struct{})}
}

// parkAppends starts MaxInflightAppends appends that block inside b until
// its gate opens, and returns once every one holds an append slot; the
// channel yields their errors.
func parkAppends(e *Engine, b *blockingLive) <-chan error {
	done := make(chan error, MaxInflightAppends)
	for i := 0; i < MaxInflightAppends; i++ {
		go func() {
			_, err := e.AppendDocs("live", [][]byte{[]byte("GATTACA")})
			done <- err
		}()
	}
	for i := 0; i < MaxInflightAppends; i++ {
		<-b.entered
	}
	return done
}

// TestEngineAppendBackpressure pins the in-flight bound: with every append
// slot occupied, the next append rejects with ErrSaturated and the rejection
// is counted; once the slots free, appends proceed.
func TestEngineAppendBackpressure(t *testing.T) {
	b := newBlockingLive(t)
	e := NewEngine(128)
	if err := e.Load(b); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	done := parkAppends(e, b)

	if _, err := e.AppendDocs("live", [][]byte{[]byte("CCCC")}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("append at the bound: %v, want ErrSaturated", err)
	}
	if got := e.Stats().AppendRejects; got != 1 {
		t.Fatalf("AppendRejects = %d, want 1", got)
	}

	close(b.gate)
	for i := 0; i < MaxInflightAppends; i++ {
		if err := <-done; err != nil {
			t.Fatalf("parked append: %v", err)
		}
	}
	// The slots are free again.
	if _, err := e.AppendDocs("live", [][]byte{[]byte("TTTT")}); err != nil {
		t.Fatalf("append after drain: %v", err)
	}
}

// TestHTTPAppendSaturation pins the HTTP mapping: a saturated append comes
// back 503 with a Retry-After hint.
func TestHTTPAppendSaturation(t *testing.T) {
	b := newBlockingLive(t)
	e := NewEngine(128)
	if err := e.Load(b); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ts := httptest.NewServer(NewHandler(e))
	t.Cleanup(ts.Close)

	done := parkAppends(e, b)
	defer func() {
		close(b.gate)
		for i := 0; i < MaxInflightAppends; i++ {
			<-done
		}
	}()

	resp, err := http.Post(ts.URL+"/v1/indexes/live/docs", "application/json",
		strings.NewReader(`{"docs":["CCCC"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated append status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}

// TestHTTPAppendBodyTooLarge pins the request-size guard: a body past the
// append limit maps to 413, not a decode 400.
func TestHTTPAppendBodyTooLarge(t *testing.T) {
	lx, err := era.NewLive("live", nil)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(128)
	if err := e.Load(lx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ts := httptest.NewServer(NewHandler(e))
	t.Cleanup(ts.Close)

	huge := strings.Repeat("A", 17<<20) // past the 16 MiB append cap
	resp, err := http.Post(ts.URL+"/v1/indexes/live/docs", "application/json",
		strings.NewReader(`{"docs":["`+huge+`"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized append status = %d, want 413", resp.StatusCode)
	}
}
