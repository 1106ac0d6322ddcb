package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// loadClients is the number of closed-loop client goroutines. The load
// generator shares the cores with the system under test, so more clients than
// cores would measure the generator's own queueing.
var loadClients = min(2, runtime.NumCPU())

// env is what a run hands each workload.
type env struct {
	seed int64
	dir  string // scratch directory, private to one set-up
}

// bench is the code behind one row of the registry. The harness sets it up
// (three times, reporting the median set-up time), warms it up with one
// strictly checked trial, runs timed trials, and in a traced run asks for the
// per-layer numbers.
type bench interface {
	// setUp generates the inputs from env.seed and builds everything the
	// trials need. On error it has already released what it acquired.
	setUp(e *env) error
	// trial runs one trial: the fixed number of closed-loop calls this box
	// completes in about dur, or one unit of fixed work where the workload's
	// size is set by its input. strict
	// selects the exhaustive answer checks of the warm-up trial. A non-nil
	// spans turns span recording on.
	trial(dur time.Duration, strict bool, spans *spanLog) trialResult
	// tail says which latency percentile is this workload's tail metric and
	// whether samples are pooled over trials first (few samples per trial).
	tail() (pct float64, pooled bool)
	// indexBytesPerSym is the end-to-end space metric, read after the trials.
	indexBytesPerSym() float64
	// layers runs the traced per-layer pass and fills out.
	layers(spans *spanLog, out map[string]float64) error
	tearDown()
}

// trialResult is what one trial measured. The resource figures cover only
// the section the workload timed.
type trialResult struct {
	ops     int64 // operations the latency and throughput figures are over
	checked int64 // further answers checked (reads beside the writer, post-reopen probes)
	failed  int64 // wrong, refused or errored, among ops + checked
	usage
	lat samples
	err error // a failure of the trial itself, not of one op
}

// usage is the resource consumption of a timed section.
type usage struct {
	wall                     time.Duration
	allocBytes, allocObjects uint64
}

type meter struct {
	t0           time.Time
	heap0, objs0 uint64
}

// heapAllocated returns the cumulative bytes and objects allocated on the heap.
func heapAllocated() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func startMeter() meter {
	var m meter
	m.heap0, m.objs0 = heapAllocated()
	m.t0 = time.Now()
	return m
}

func (m meter) stop() usage {
	u := usage{wall: time.Since(m.t0)}
	bytes, objs := heapAllocated()
	u.allocBytes, u.allocObjects = bytes-m.heap0, objs-m.objs0
	return u
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(buf, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, err := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the high-water mark at the current resident set, so
// peak_rss_mb covers one trial and not the set-up builds or trials before it.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// ioWritten reads the bytes this process has passed to write-like system
// calls (wchar), the numerator of live.write_amp.
func ioWritten() (int64, error) {
	buf, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(buf, []byte{'\n'}) {
		if rest, ok := bytes.CutPrefix(line, []byte("wchar:")); ok {
			return strconv.ParseInt(string(bytes.TrimSpace(rest)), 10, 64)
		}
	}
	return 0, fmt.Errorf("no wchar in /proc/self/io")
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// loopClient is one closed-loop client's position in its stream. The sample
// buffer is reused from trial to trial.
type loopClient struct {
	s   *stream
	pos int
	lat samples
}

func newLoopClients(seed int64) []*loopClient {
	cl := make([]*loopClient, loadClients)
	for i := range cl {
		cl[i] = &loopClient{s: genStream(seed*1000+int64(i)+1, streamLen)}
	}
	return cl
}

// caller performs one call of the membership stream for client ci and,
// outside the latency measurement, checks the answer it got.
type caller interface {
	call(ci int, c call)
	verify(ci int, c call, strict bool) bool
}

// closedLoop has every client make the next calls of its stream, each sent
// only once the previous one has answered. The count is fixed and not the
// time: rate is the calls per second one client completes on the box this was
// sized on, so a trial lasts about dur there, and on any box trial k of a seed
// replays the same calls and its per-operation figures depend on the code
// alone. Latency is measured around call; the trial's wall time, and so
// ops_s, includes verify.
func closedLoop(clients []*loopClient, rate float64, dur time.Duration, strict bool, spans *spanLog, layer string, cr caller) trialResult {
	var (
		wg     sync.WaitGroup
		failed atomic.Int64
		logs   = make([]*spanLog, len(clients))
		n      = max(1, int(rate*dur.Seconds())/len(streamBlock)) * len(streamBlock)
	)
	m := startMeter()
	for ci, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.lat = cl.lat[:0]
			var sl *spanLog
			if spans != nil {
				sl = newSpanLog(spans.epoch)
				logs[ci] = sl
			}
			for i := 0; i < n; i++ {
				c := cl.s.calls[cl.pos%len(cl.s.calls)]
				cl.pos++
				t0 := time.Now()
				cr.call(ci, c)
				t1 := time.Now()
				cl.lat = append(cl.lat, t1.Sub(t0).Nanoseconds())
				if sl != nil {
					sl.add(layer, c.kind.String(), int32(i), 0, t0, t1)
				}
				if !cr.verify(ci, c, strict) {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res := trialResult{ops: int64(n * len(clients)), failed: failed.Load(), usage: m.stop()}
	for _, cl := range clients {
		res.lat = append(res.lat, cl.lat...)
	}
	for _, sl := range logs {
		if sl != nil {
			spans.merge(sl)
		}
	}
	return res
}
