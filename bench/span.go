package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// Span is one timed call into a layer's public API, recorded by the harness
// from outside the layer.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a top-level span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer was created
	EndNs    int64  `json:"end_ns"`
	// Mallocs is the heap-allocation count inside the span (the whole
	// process's, so only meaningful while nothing else runs).
	Mallocs uint64 `json:"mallocs"`
}

// Tracer keeps spans in memory until the pass ends. All spans come from the
// harness's own goroutine, so the open-span stack gives each its parent. A
// nil *Tracer times nothing and records nothing: the untraced replay runs the
// same code through it.
type Tracer struct {
	workload string
	t0       time.Time
	spans    []Span
	stack    []int
}

func newTracer(workload string) *Tracer {
	return &Tracer{workload: workload, t0: time.Now()}
}

// Dur is the span's wall-clock length.
func (s Span) Dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// Do runs fn inside a span and returns the finished span.
func (t *Tracer) Do(name string, fn func()) Span {
	if t == nil {
		fn()
		return Span{}
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Workload: t.workload})
	t.stack = append(t.stack, id)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id-1]
	s.StartNs, s.EndNs = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	s.Mallocs = after.Mallocs - before.Mallocs
	return *s
}

// childrenTotal sums the durations of the spans directly under parent.
func (t *Tracer) childrenTotal(parent int) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.Parent == parent {
			sum += s.Dur()
		}
	}
	return sum
}

func (t *Tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
