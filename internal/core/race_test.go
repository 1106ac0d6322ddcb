package core

import (
	"reflect"
	"sync"
	"testing"

	"era/internal/alphabet"
	"era/internal/workload"
)

// TestConcurrentParallelBuilds exercises the goroutine-parallel build paths
// under the race detector (CI runs this suite with -race): several
// BuildParallel and BuildDistributed runs execute at once, each itself
// spawning workers, and every resulting image must match the Ukkonen
// oracle's.
func TestConcurrentParallelBuilds(t *testing.T) {
	data := workload.MustGenerate(workload.DNA, 4000, 13)
	want := oracleFlat(t, alphabet.DNA, data)

	const builds = 4
	var wg sync.WaitGroup
	errc := make(chan error, 2*builds)
	for i := 0; i < builds; i++ {
		// Each build gets its own simulated disk, published before the
		// goroutines start (publish may t.Fatal).
		pf, df := publish(t, alphabet.DNA, data), publish(t, alphabet.DNA, data)
		wg.Add(2)
		go func(workers int) {
			defer wg.Done()
			res, err := BuildParallel(pf, ParallelOptions{Options: testOptions(64 * 1024), Workers: workers})
			if err != nil {
				errc <- err
				return
			}
			if !reflect.DeepEqual(res.Flat, want) {
				t.Errorf("parallel build with %d workers diverged from oracle", workers)
			}
		}(2 + i)
		go func(nodes int) {
			defer wg.Done()
			res, err := BuildDistributed(df, DistributedOptions{Options: testOptions(64 * 1024), Nodes: nodes})
			if err != nil {
				errc <- err
				return
			}
			if !reflect.DeepEqual(res.Flat, want) {
				t.Errorf("distributed build with %d nodes diverged from oracle", nodes)
			}
		}(2 + i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
