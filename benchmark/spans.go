package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Spans of
// one replayed request share Req; Parent is the ID of the span one rung up
// the ladder for the same request (0 for none). Start and End are
// nanoseconds since the run began.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Req    int32  `json:"req"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanLog keeps spans in memory until the run ends. It is not safe for
// concurrent use: each client goroutine records into its own log, and the
// owner merges them after the goroutines have finished.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch} }

// add records a span and returns its ID (1-based position in the log).
func (l *spanLog) add(layer, op string, req int32, parent int32, start, end time.Time) int32 {
	id := int32(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Layer: layer, Op: op, Req: req,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()})
	return id
}

// merge appends other's spans, renumbering their IDs and parent links.
func (l *spanLog) merge(other *spanLog) {
	off := int32(len(l.spans))
	for _, s := range other.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		l.spans = append(l.spans, s)
	}
}

func (l *spanLog) writeFile(path string) error {
	buf, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns each span's self time in nanoseconds, indexed like
// spans: its duration minus the durations of the spans that name it as
// parent. The ladder replays one request through every rung in turn instead
// of nesting the calls, so a child's interval lies outside its parent's and
// the subtraction uses durations, not interval overlap. A rung that ran
// faster than the rung below it yields a negative self time; that is noise
// to report, not to hide.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	index := make(map[int32]int, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		index[s.ID] = i
	}
	for _, s := range spans {
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			self[p] -= s.End - s.Start
		}
	}
	return self
}
