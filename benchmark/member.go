package main

import (
	"os"
	"path/filepath"
	"time"

	"era"
	"era/internal/workload"
)

// English is the widest predefined alphabet (26 symbols), DNA the narrowest:
// construction and descent cost both depend on alphabet width, so the
// serving workloads and the build workload sit at opposite ends.
const (
	memberSymbols = 512 << 10
	memberDocs    = 64
	corpusName    = "c"
)

// memberFixture is what lookup, point and routed share: one English corpus,
// its oracle, the pattern universe with expected answers, one op stream per
// client, and the corpus built serially, written as a v4 image and reopened
// by mmap — the way `era build` then `era serve` would reach it.
type memberFixture struct {
	corp    *corpus
	want    *expect
	clients []*loopClient
	path    string
	mono    era.Queryable
	image   int64 // bytes of the v4 file
}

func (f *memberFixture) setUp(e *env) error {
	corp, err := genCorpus(workload.English, memberSymbols, memberDocs, e.seed)
	if err != nil {
		return err
	}
	orc, err := newOracle(corp.data)
	if err != nil {
		return err
	}
	f.corp = corp
	f.want = orc.expect(genUniverse(corp.data, e.seed))
	f.clients = newLoopClients(e.seed)

	idx, err := era.BuildCorpus(corp.docs, &era.Config{Target: era.TargetFlat})
	if err != nil {
		return err
	}
	idx.SetName(corpusName)
	f.path = filepath.Join(e.dir, corpusName+".idx")
	if err := era.WriteFileV4(f.path, idx); err != nil {
		return err
	}
	info, err := os.Stat(f.path)
	if err != nil {
		return err
	}
	f.image = info.Size()
	f.mono, err = era.OpenIndex(f.path)
	return err
}

func (f *memberFixture) tearDown() {
	if f.mono != nil {
		f.mono.Close()
	}
}

func (f *memberFixture) indexBytesPerSym() float64 {
	return float64(f.image) / float64(len(f.corp.data))
}

// membership is the query surface libCaller drives: an era.Queryable, or a
// server.Engine behind an adapter (ladder.go).
type membership interface {
	Contains(p []byte) bool
	Count(p []byte) int
	Batch(ops []era.Op) []era.Result
}

// libCaller calls an era.Queryable the way a library user would: the
// single-purpose methods for contains and count, Batch for a capped
// occurrences list and for batches.
type libCaller struct {
	q    membership
	want *expect
	per  []libState
}

type libState struct {
	s     *stream
	ops   []era.Op
	res   []era.Result
	found bool
	count int
}

func newLibCaller(q membership, want *expect, clients []*loopClient) *libCaller {
	lc := &libCaller{q: q, want: want, per: make([]libState, len(clients))}
	for i, cl := range clients {
		lc.per[i] = libState{s: cl.s, ops: make([]era.Op, 0, batchSize)}
	}
	return lc
}

func (lc *libCaller) call(ci int, c call) {
	st := &lc.per[ci]
	switch c.kind {
	case opContains:
		st.found = lc.q.Contains(lc.want.universe[c.pat])
	case opCount:
		st.count = lc.q.Count(lc.want.universe[c.pat])
		st.found = st.count > 0
	case opOccurrences:
		st.ops = append(st.ops[:0], c.op(lc.want.universe))
		st.res = lc.q.Batch(st.ops)
	case opBatch:
		st.ops = st.ops[:0]
		for _, bc := range st.s.batches[c.pat] {
			st.ops = append(st.ops, bc.op(lc.want.universe))
		}
		st.res = lc.q.Batch(st.ops)
	}
}

func (lc *libCaller) verify(ci int, c call, strict bool) bool {
	st := &lc.per[ci]
	switch c.kind {
	case opContains, opCount:
		return lc.want.check(c, st.found, st.count, nil, strict)
	case opOccurrences:
		return len(st.res) == 1 && lc.want.checkResult(c, st.res[0], strict)
	}
	if len(st.res) != batchSize {
		return false
	}
	for i, bc := range st.s.batches[c.pat] {
		if !lc.want.checkResult(bc, st.res[i], strict) {
			return false
		}
	}
	return true
}

// lookupWorkload: library users, no server.
type lookupWorkload struct {
	memberFixture
	cr *libCaller
}

func (w *lookupWorkload) setUp(e *env) error {
	if err := w.memberFixture.setUp(e); err != nil {
		w.tearDown()
		return err
	}
	w.cr = newLibCaller(w.mono, w.want, w.clients)
	return nil
}

// lookupRate is the calls per second one client completes on the box this
// was sized on (2 vCPUs, 2 clients); it fixes the calls per trial.
const lookupRate = 180e3

func (w *lookupWorkload) trial(dur time.Duration, strict bool, spans *spanLog) trialResult {
	return closedLoop(w.clients, lookupRate, dur, strict, spans, "index", w.cr)
}

func (w *lookupWorkload) tail() (float64, bool) { return 99, false }

func (w *lookupWorkload) layers(spans *spanLog, out map[string]float64) error {
	return runLadder(&w.memberFixture, ladderTop{}, spans, out)
}
