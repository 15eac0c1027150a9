package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Parent 0 means a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the trace began
	End    int64  `json:"end"`
}

// tracer records spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so the untraced run shares the
// call sites. Each goroutine owns its tracer: IDs are first,
// first+stride, ... so per-worker tracers never collide and merge by
// concatenation.
type tracer struct {
	t0            time.Time
	first, stride int
	spans         []span
}

func newTracer(t0 time.Time, first, stride int) *tracer {
	return &tracer{t0: t0, first: first, stride: stride}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	id := t.first + t.stride*len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[(id-t.first)/t.stride].End = int64(time.Since(t.t0))
}

// dur returns the duration of a recorded span.
func (t *tracer) dur(id int) time.Duration {
	s := t.spans[(id-t.first)/t.stride]
	return time.Duration(s.End - s.Start)
}

func writeSpans(path string, spans []span) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
