package core

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"era/internal/alphabet"
	"era/internal/seq"
	"era/internal/sim"
	"era/internal/workload"
)

// countdownCtx turns cancelled on the at-th call of Err and counts every
// call: a build reads only Err, so the count is its number of stop checks.
type countdownCtx struct {
	context.Context
	at    int64
	calls atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) >= c.at {
		return context.Canceled
	}
	return nil
}

// TestBuildStopsOnItsContext builds the repeat cliff's dup corpus (a random
// DNA document followed by its copy, whose build reads every symbol of the
// repeat round by round) serially at 13 B/symbol and on two shared-disk
// workers. A context cancelled up front stops the build before its first
// scan; one cancelled inside the group phase stops every worker at its next
// round.
func TestBuildStopsOnItsContext(t *testing.T) {
	a := alphabet.DNA
	doc := workload.MustGenerate(workload.DNA, 16<<10, 7)
	body := doc[:len(doc)-1]
	data := slices.Concat(body, body, []byte{alphabet.Terminator})
	budget := 13 * int64(len(data))
	builds := []struct {
		name    string
		workers int
		run     func(*seq.File, Options) (*Result, error)
	}{
		{"serial", 1, BuildSerial},
		{"shared-disk-2", 2, func(f *seq.File, o Options) (*Result, error) {
			return BuildParallel(f, ParallelOptions{Options: o, Workers: 2})
		}},
	}
	for _, b := range builds {
		t.Run(b.name+"/cancelled-before", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			f := publish(t, a, data)
			if _, err := b.run(f, Options{MemoryBudget: budget, AssembleFlat: true, Context: ctx}); err != context.Canceled {
				t.Fatalf("build under a cancelled context returned %v, want context.Canceled", err)
			}
			if st := f.Disk().Stats(); st.ReadOps != 0 || st.BytesRead != 0 {
				t.Fatalf("a build cancelled up front read the input: %+v", st)
			}
		})
		t.Run(b.name+"/cancelled-in-prepare", func(t *testing.T) {
			// VP checks once per pass, so the (VP passes + 16)-th check falls
			// among the group phase's round checks.
			f := publish(t, a, data)
			layout, err := PlanMemory(budget/int64(b.workers), 0, a.Bits())
			if err != nil {
				t.Fatal(err)
			}
			clock := new(sim.Clock)
			sc, err := f.NewScanner(clock, seq.ScannerConfig{BufSize: int(layout.InputBuf)})
			if err != nil {
				t.Fatal(err)
			}
			_, vs, err := VerticalPartition(f, sc, clock, f.Disk().Model(), layout.FM, true)
			if err != nil {
				t.Fatal(err)
			}
			c := &countdownCtx{Context: context.Background(), at: int64(vs.Iterations) + 16}
			f = publish(t, a, data)
			if _, err := b.run(f, Options{MemoryBudget: budget, AssembleFlat: true, Context: c}); err != context.Canceled {
				t.Fatalf("build cancelled at check %d returned %v, want context.Canceled", c.at, err)
			}
			// Each worker reads the cancellation at its next check, which
			// follows at most the round it was in, and reads it once more to
			// report it; no worker checks, or runs a round, beyond that.
			if after := c.calls.Load() - c.at + 1; after > int64(2*b.workers) {
				t.Fatalf("%d stop checks saw the cancellation; %d workers should stop after at most %d", after, b.workers, 2*b.workers)
			}
		})
	}
}
