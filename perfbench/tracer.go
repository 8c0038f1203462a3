package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call of the traced run. Spans of one request or
// sweep share Trace; Parent is 0 for a trace's root span.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Trace   int64  `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanCtx names the enclosing span; the zero value starts a new trace.
type spanCtx struct{ id, trace int64 }

// tracer keeps the spans of one traced run in memory until the run ends,
// together with the output checks that failed along the way.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	fails []string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span named name under parent and returns the
// span's duration.
func (t *tracer) do(parent spanCtx, name string, fn func(spanCtx) error) (time.Duration, error) {
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	sp := span{ID: id, Parent: parent.id, Trace: parent.trace, Name: name}
	if sp.Trace == 0 {
		sp.Trace = id
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()

	start := time.Now()
	err := fn(spanCtx{id: id, trace: sp.Trace})
	end := time.Now()

	t.mu.Lock()
	t.spans[id-1].StartNS = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].EndNS = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
	return end.Sub(start), err
}

// step adapts the tracer to a stepFunc whose spans hang under parent.
func (t *tracer) step(parent spanCtx) stepFunc {
	return func(name string, fn func() error) error {
		_, err := t.do(parent, name, func(spanCtx) error { return fn() })
		return err
	}
}

// fail records a failed output check.
func (t *tracer) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fails = append(t.fails, fmt.Sprintf(format, args...))
}

// layerStat sums the spans of one name: their count, total duration and
// self time (duration minus the part of it covered by child spans).
type layerStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// layers derives per-name totals and self times from the spans.
func (t *tracer) layers() map[string]layerStat {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerStat{}
	for _, s := range t.spans {
		dur := s.EndNS - s.StartNS
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		// Union of the children's intervals, clipped to the span.
		var covered, reach int64 = 0, s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-covered) / 1e6
		out[s.Name] = st
	}
	return out
}

// total returns the summed duration of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.EndNS - s.StartNS
		}
	}
	return time.Duration(d)
}

// write stores the spans and the per-layer summary as JSON at path.
func (t *tracer) write(path string, stamp map[string]any) error {
	b, err := json.MarshalIndent(map[string]any{
		"run": stamp, "layers": t.layers(), "spans": t.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
