package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code: name, start and end relative to the trace's origin, and the span
// that caused it (0 for a root). Spans of one request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its ID (0 when t is nil).
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// begin opens a span that end closes; children may name it as parent
// in between.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.record(name, parent, 0, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// time runs fn inside a span and returns fn's wall time; it times fn
// whether or not t records.
func (t *tracer) time(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, parent, 0, start, end)
	return end.Sub(start)
}

// count reports how many spans were recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeJSONL writes every span, one JSON object per line, to path.
func (t *tracer) writeJSONL(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
