// Example server: build two corpora, persist them, serve them over the JSON
// HTTP API, and query them like a remote client would.
//
// This is the end-to-end shape of a deployment — `era build` producing .idx
// files, `era serve` loading them, clients speaking JSON — compressed into
// one process: the server runs on a loopback listener and the "client" is
// net/http against it.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"era"
	"era/internal/server"
)

func main() {
	// 1. Build and persist two corpora, as `era build` would.
	dir, err := os.MkdirTemp("", "era-server-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	dna, err := era.Build([]byte("TGGTGGTGGTGCGGTGATGGTGC"), nil)
	if err != nil {
		log.Fatal(err)
	}
	dna.SetName("dna")
	if err := dna.WriteFile(filepath.Join(dir, "dna.idx")); err != nil {
		log.Fatal(err)
	}

	docs, err := era.BuildCorpus([][]byte{
		[]byte("thequickbrownfoxjumpsoverthelazydog"),
		[]byte("quickbrownfoxesarequick"),
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	docs.SetName("phrases")
	if err := docs.WriteFile(filepath.Join(dir, "phrases.idx")); err != nil {
		log.Fatal(err)
	}

	// A corpus too big for one index is cut into prefix ranges of its
	// suffix order (as `era shard` would); it persists as one file, loads as
	// one catalog entry, and answers the same JSON queries — each from the
	// shards that own it, with answers identical to a monolithic index.
	sharded, err := era.BuildShardedCorpus([][]byte{
		[]byte("GATTACAGATTACA"),
		[]byte("CATTAGACATTAGA"),
		[]byte("TTTTGATTTT"),
		[]byte("ACACATTACA"),
	}, &era.ShardConfig{Shards: 2})
	if err != nil {
		log.Fatal(err)
	}
	sharded.SetName("genomes")
	if err := sharded.WriteFile(filepath.Join(dir, "genomes.idx")); err != nil {
		log.Fatal(err)
	}

	// 2. Hot-load the index files and serve them, as `era serve -dir` would.
	engine := server.NewEngine(1024)
	names, err := engine.LoadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("serving indexes:", names)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.NewHandler(engine)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// 3. Query as a remote client.
	fmt.Println("\n-- GET /v1/indexes --")
	get(base + "/v1/indexes")

	fmt.Println("\n-- POST /v1/query: count TG in dna --")
	post(base+"/v1/query", map[string]any{
		"index": "dna", "op": "count", "pattern": "TG",
	})

	fmt.Println("\n-- POST /v1/batch: one descent amortized over related patterns --")
	post(base+"/v1/batch", map[string]any{
		"index": "phrases",
		"ops": []map[string]any{
			{"op": "contains", "pattern": "quickbrown"},
			{"op": "count", "pattern": "quick"},
			{"op": "occurrences", "pattern": "quick", "max": 5},
			{"op": "contains", "pattern": "slowbrown"},
		},
	})

	fmt.Println("\n-- POST /v1/query: the sharded corpus answers through the same API --")
	post(base+"/v1/query", map[string]any{
		"index": "genomes", "op": "occurrences", "pattern": "ATTA", "max": 5,
	})

	// The repeated query is answered from the LRU cache — the engine
	// counters in /metricz show the hit.
	post(base+"/v1/query", map[string]any{
		"index": "dna", "op": "count", "pattern": "TG",
	})
	fmt.Println("\n-- GET /metricz: the engine counters --")
	resp, err := http.Get(base + "/metricz")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics struct {
		Engine server.Stats `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		log.Fatal(err)
	}
	out, err := json.MarshalIndent(metrics.Engine, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

func get(url string) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	dump(resp)
}

func post(url string, body any) {
	raw, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	dump(resp)
}

func dump(resp *http.Response) {
	var v any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		log.Fatal(err)
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}
