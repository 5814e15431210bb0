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

// span is one timed call the benchmark made into a layer, real or replayed.
// Spans of one epoch share Epoch; Parent is the ID of the span that caused
// this one (0 for an epoch's root). Times are nanoseconds since the tracer
// was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Epoch  int64  `json:"epoch"`
	Shard  int    `json:"shard"` // -1 outside the fleet's per-shard calls
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The fleet workload
// records from the shard workers and the HTTP handler goroutines, hence the
// lock. A nil tracer records nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// add records a completed span and returns its ID.
func (t *tracer) add(name string, parent int, epoch int64, shard int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Epoch: epoch, Shard: shard,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)),
	})
	return id
}

// begin opens a span whose children need its ID before it ends.
func (t *tracer) begin(name string, parent int, epoch int64, shard int, start time.Time) int {
	return t.add(name, parent, epoch, shard, start, start)
}

// end closes a span opened with begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = int64(now.Sub(t.base))
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, epoch int64, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, parent, epoch, -1, start, time.Now())
	return err
}

// durationsMS returns the durations of every span called name.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfMS returns, for every span called name, its duration minus the time
// its direct children cover: the layer's own time.
func (t *tracer) selfMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-children[s.ID])/1e6)
		}
	}
	return out
}

// lastPerEpochMS returns, for every epoch, the duration of the span called
// name that ended last.
func (t *tracer) lastPerEpochMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	last := map[int64]span{}
	for _, s := range t.spans {
		if cur, ok := last[s.Epoch]; s.Name == name && (!ok || s.End > cur.End) {
			last[s.Epoch] = s
		}
	}
	var out []float64
	for _, s := range last {
		out = append(out, float64(s.End-s.Start)/1e6)
	}
	return out
}

// write dumps the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
