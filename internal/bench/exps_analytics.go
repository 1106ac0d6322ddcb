package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"era"
	"era/internal/workload"
)

// analyticsSetup builds one DNA corpus three ways — monolithic and served
// from its mapped file, sharded, and live grown through interleaved appends
// and deletes — so the analytics executors can be raced against each other on
// identical logical content.
func analyticsSetup(s Scale) (layers []era.Queryable, names []string, docs [][]byte, cleanup func(), err error) {
	n := s.GB(1)
	data, err := workload.Generate(workload.DNA, n, 90210)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	data = data[:len(data)-1] // builders append their own terminator
	docs, err = workload.SliceDocs(data, 48)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	mono, err := era.BuildCorpus(docs, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	mono.SetName("analytics")

	dir, err := os.MkdirTemp("", "era-analytics")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	path := filepath.Join(dir, "analytics.idx")
	if err := mono.WriteFile(path); err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, nil, err
	}
	mapped, err := era.OpenIndex(path)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, nil, nil, err
	}

	sharded, err := era.BuildShardedCorpus(docs, &era.ShardConfig{Shards: 4})
	if err != nil {
		mapped.Close()
		os.RemoveAll(dir)
		return nil, nil, nil, nil, err
	}

	// The live layer reaches the same surviving corpus the hard way: every
	// eighth append is an extra document that is tombstoned afterwards, so
	// the analytics answers must hold across tiers and dead runs.
	lx, err := era.NewLive("analytics-live", &era.LiveConfig{MemtableMaxDocs: 8})
	if err != nil {
		mapped.Close()
		os.RemoveAll(dir)
		return nil, nil, nil, nil, err
	}
	var dead []uint64
	for i, d := range docs {
		if _, err := lx.Append([][]byte{d}); err != nil {
			lx.Close()
			mapped.Close()
			os.RemoveAll(dir)
			return nil, nil, nil, nil, err
		}
		if i%8 == 3 {
			extra := data[(i*389)%(len(data)-64) : (i*389)%(len(data)-64)+48]
			ids, err := lx.Append([][]byte{extra})
			if err != nil {
				lx.Close()
				mapped.Close()
				os.RemoveAll(dir)
				return nil, nil, nil, nil, err
			}
			dead = append(dead, ids[0])
		}
	}
	for _, id := range dead {
		if _, err := lx.Delete(id); err != nil {
			lx.Close()
			mapped.Close()
			os.RemoveAll(dir)
			return nil, nil, nil, nil, err
		}
	}

	cleanup = func() {
		lx.Close()
		mapped.Close()
		os.RemoveAll(dir)
	}
	return []era.Queryable{mapped, sharded, lx},
		[]string{"mono", "sharded", "live"}, docs, cleanup, nil
}

// RunAnalytics races the five analytics ops across the three serving layers.
// Wall columns are host-dependent and gated by the CI bench-smoke compare;
// the "identical" column is the deterministic contract — every layer's
// Answer must be byte-identical (reflect.DeepEqual) for every op, which is
// the bench-side restatement of TestAnalyticsDifferential.
func RunAnalytics(s Scale) (*Table, error) {
	t := &Table{ID: "analytics", Paper: "§1 (serving)", Title: "analytics ops: monolithic vs sharded vs live; DNA, 48 documents",
		Header: []string{"op", "wall-mono(ms)", "wall-sharded(ms)", "wall-live(ms)", "identical"}}

	layers, names, docs, cleanup, err := analyticsSetup(s)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Deterministic probe material cut from the corpus itself.
	var dfPats [][]byte
	for i := 0; i < 16; i++ {
		d := docs[(i*7)%len(docs)]
		off := (i * 211) % (len(d) - 12)
		dfPats = append(dfPats, d[off:off+4+i%8])
	}
	misPat := docs[0][32:40]

	queries := []struct {
		name string
		q    era.Query
	}{
		{"topk k=16 L=8", era.Query{Kind: era.OpTopK, K: 16, MinLen: 8}},
		{"lrs", era.Query{Kind: era.OpLongestRepeat}},
		{fmt.Sprintf("lcs(0,%d)", len(docs)-1), era.Query{Kind: era.OpCommonSubstring, DocA: 0, DocB: len(docs) - 1}},
		{"docfreq 16 pats", era.Query{Kind: era.OpDocFreq, Patterns: dfPats}},
		{"mismatch m=8 k=1", era.Query{Kind: era.OpMismatch, Pattern: misPat, K: 1}},
	}

	const rounds = 3
	for _, qc := range queries {
		var ref era.Answer
		for i, layer := range layers {
			ans, err := layer.Analytics(context.Background(), qc.q)
			if err != nil {
				return nil, fmt.Errorf("analytics: %s on %s: %w", qc.name, names[i], err)
			}
			if i == 0 {
				ref = ans
			} else if !reflect.DeepEqual(ans, ref) {
				return nil, fmt.Errorf("analytics: %s diverged between %s and %s", qc.name, names[0], names[i])
			}
		}
		row := []string{qc.name}
		for _, layer := range layers {
			t0 := time.Now()
			for r := 0; r < rounds; r++ {
				if _, err := layer.Analytics(context.Background(), qc.q); err != nil {
					return nil, err
				}
			}
			row = append(row, ms(time.Since(t0)))
		}
		row = append(row, "yes")
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("workload: %d rounds per cell over a %d-symbol corpus; wall cells are host-dependent (lower is better; CI gates 25%%)", rounds, s.GB(1)),
		"identical = every layer's Answer is reflect.DeepEqual to the monolithic executor's, including the live layer built through appends+deletes")
	return t, nil
}
