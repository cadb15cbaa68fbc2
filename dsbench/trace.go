package main

// trace.go records spans around the benchmark's calls into each dsprof
// layer. Spans are kept in memory and written out when the run ends;
// each phase's self time is derived from them afterwards.

import (
	"sort"
	"time"
)

// span is one timed call: its name, its interval relative to the run
// start, the span that contained it (-1 for a root) and the op it
// belongs to (0 is the warm-up op).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer collects spans from one goroutine. A nil tracer records
// nothing, so untraced runs pay only a nil check per call.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int // stack of unfinished span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOp makes later spans belong to op.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: t.since()})
	t.open = append(t.open, id)
	err := f()
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.since()
	return err
}

func (t *tracer) since() float64 { return time.Since(t.t0).Seconds() }

// phase is the time spent in every span of one name: total duration, and
// self time — duration not covered by the span's children.
type phase struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// phases aggregates spans by name, in order of first appearance.
func phases(spans []span) []phase {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []phase
	at := make(map[string]int)
	for _, s := range spans {
		i, ok := at[s.Name]
		if !ok {
			i = len(out)
			at[s.Name] = i
			out = append(out, phase{Name: s.Name})
		}
		out[i].Count++
		out[i].Total += s.dur()
		out[i].Self += s.dur() - covered(children[s.ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	total := 0.0
	lo, hi := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > hi {
			total += hi - lo
			lo, hi = x.Start, x.End
			continue
		}
		if x.End > hi {
			hi = x.End
		}
	}
	return total + hi - lo
}

// perOp sums, for each op, the durations of spans named name; ops with
// no such span contribute 0.
func perOp(spans []span, name string, ops []int) []float64 {
	sum := make(map[int]float64)
	for _, s := range spans {
		if s.Name == name {
			sum[s.Op] += s.dur()
		}
	}
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sum[op]
	}
	return out
}
