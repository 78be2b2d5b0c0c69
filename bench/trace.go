package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Spans of one operation share Op, the id of the operation's root
// span; Parent is the span that caused this one (0 for a root). Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs are measured.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a parent can be named by its children before its
// own end time is known.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id
}

// add records a finished span under a reserved id (0 reserves one now). A
// span with no parent is the root of its own operation.
func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if id == 0 {
		t.next++
		id = t.next
	}
	op := parent
	if op == 0 {
		op = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// durations returns the durations in ms of every span called name that ended
// before the given moment.
func (t *tracer) durations(name string, before time.Time) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	limit := before.Sub(t.t0).Nanoseconds()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End <= limit {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTime is a span name's total duration and the part of it no child span
// covers.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, duration and self time (duration minus the
// part of the interval its child spans cover; the benchmark's child spans of
// one parent never overlap, so that part is their summed duration).
func selfTimes(spans []span) []selfTime {
	child := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		d := s.End - s.Start
		a.Count++
		a.TotalMs += float64(d) / 1e6
		a.SelfMs += float64(d-child[s.ID]) / 1e6
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Stamp    stamp      `json:"stamp"`
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Self     []selfTime `json:"self_times"`
	Spans    []span     `json:"spans"`
}

// write stores the spans and their self-time summary under dir.
func (t *tracer) write(dir, workload string, seed int64, st stamp) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(traceFile{Stamp: st, Workload: workload, Seed: seed, Self: selfTimes(spans), Spans: spans})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
