package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans live in memory
// for the traced round and are written out when the benchmark ends.
type span struct {
	kind       string // workload, rep, cell, boot, build, run, harvest
	name       string
	parent     int // index of the causing span, -1 for a root
	start, end time.Duration
}

// spanLog is the traced round's span store. A nil *spanLog records
// nothing, which is how the untraced rounds run.
type spanLog struct {
	spans []span
}

// begin opens a span and returns its id.
func (l *spanLog) begin(kind, name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{kind: kind, name: name, parent: parent, start: now()})
	return len(l.spans) - 1
}

// end closes the span begin opened.
func (l *spanLog) end(id int) {
	if l != nil {
		l.spans[id].end = now()
	}
}

// add records a finished span.
func (l *spanLog) add(kind string, parent int, start, end time.Duration) {
	if l != nil {
		l.spans = append(l.spans, span{kind, kind, parent, start, end})
	}
}

// selfTimes sums, per span kind, each span's duration minus the part its
// children cover, over the spans recorded from index `from` on (one
// workload's tree: a span's parent always precedes it).
func (l *spanLog) selfTimes(from int) map[string]time.Duration {
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans[from:] {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range l.spans[from:] {
		self[s.kind] += s.end - s.start - child[from+i]
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto. args carries each span's id and parent id.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.name, Cat: s.kind, Ph: "X",
			TS:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	js, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, js, 0o644)
}
