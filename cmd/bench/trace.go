package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer's public function. Parent is the
// index of the enclosing span in the tracer's list (-1 for a root);
// spans of one pass over the workload share a RunID.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	RunID   string `json:"run_id"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer records spans in memory from the one goroutine that drives the
// traced run. A nil tracer records nothing, so the untraced run shares
// the workload code without paying for it.
type tracer struct {
	now   func() int64 // nanoseconds on a monotonic clock
	runID string
	spans []span
	open  []int
}

func newTracer() *tracer {
	t0 := time.Now()
	return &tracer{now: func() int64 { return int64(time.Since(t0)) }}
}

// do runs fn inside a span named name, nested under the innermost open
// span.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, RunID: t.runID, StartNS: t.now()})
	t.open = append(t.open, id)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNS = t.now()
}

// selfNS returns each span's self time: its duration minus the part its
// direct children cover. Over one tree the self times sum to the root's
// duration.
func (t *tracer) selfNS() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// seconds sums the duration of every span with the given name.
func (t *tracer) seconds(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e9
}

// childCoverage returns, for the first span named name, the share of its
// duration its direct children cover.
func (t *tracer) childCoverage(name string) float64 {
	for i, s := range t.spans {
		if s.Name == name && s.dur() > 0 {
			return 1 - float64(t.selfNS()[i])/float64(s.dur())
		}
	}
	return 0
}

// nameTotal is the per-name roll-up written beside the raw spans.
type nameTotal struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func (t *tracer) byName() []nameTotal {
	self := t.selfNS()
	idx := map[string]int{}
	var out []nameTotal
	for i, s := range t.spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, nameTotal{Name: s.Name})
		}
		out[k].Count++
		out[k].TotalNS += s.dur()
		out[k].SelfNS += self[i]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TotalNS > out[j].TotalNS })
	return out
}
