package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestPhasesSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Op: 1, Name: "collect.Run", Start: 1, End: 4},
		{ID: 2, Parent: 0, Op: 1, Name: "analyzer.Render", Start: 5, End: 8},
		{ID: 3, Parent: 2, Op: 1, Name: "analyzer.Render:total", Start: 5, End: 6},
		{ID: 4, Parent: 2, Op: 1, Name: "analyzer.Render:pcs", Start: 5.5, End: 7},
		{ID: 5, Parent: -1, Op: 2, Name: "op", Start: 20, End: 22},
		{ID: 6, Parent: 5, Op: 2, Name: "collect.Run", Start: 20, End: 21},
	}
	got := map[string]phase{}
	for _, p := range phases(spans) {
		got[p.Name] = p
	}
	for name, want := range map[string]phase{
		"op":              {Count: 2, Total: 12, Self: 10 - 6 + 2 - 1},
		"collect.Run":     {Count: 2, Total: 4, Self: 4},
		"analyzer.Render": {Count: 1, Total: 3, Self: 1}, // children overlap: union is 5..7
	} {
		g := got[name]
		if g.Count != want.Count || math.Abs(g.Total-want.Total) > 1e-12 || math.Abs(g.Self-want.Self) > 1e-12 {
			t.Errorf("%s: got %+v, want count %d total %v self %v", name, g, want.Count, want.Total, want.Self)
		}
	}
	if got := perOp(spans, "collect.Run", []int{1, 2, 3}); !slices.Equal(got, []float64{3, 1, 0}) {
		t.Errorf("perOp = %v, want [3 1 0]", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.setOp(3)
	boom := errors.New("boom")
	err := tr.do("outer", func() error {
		return tr.do("inner", func() error { return boom })
	})
	if err != boom {
		t.Fatalf("do returned %v, want the inner error", err)
	}
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Op != 3 {
		t.Fatalf("spans %+v: want inner nested under outer in op 3", tr.spans)
	}
	var nilTracer *tracer
	ran := false
	nilTracer.do("x", func() error { ran = true; return nil })
	if !ran {
		t.Error("a nil tracer must still run the call")
	}
}

// BENCHMARK.json at the repository root declares the workloads and the
// metric names this benchmark prints; the two must agree.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got, want := names(spec.EndToEnd), endToEndNames; !slices.Equal(got, want) {
		t.Errorf("end_to_end %v, the benchmark prints %v", got, want)
	}
	if got, want := names(spec.PerLayer), layerNames; !slices.Equal(got, want) {
		t.Errorf("per_layer %v, the benchmark prints %v", got, want)
	}
	got := names(spec.Workloads)
	sort.Strings(got)
	if want := workloadNames(); !slices.Equal(got, want) {
		t.Errorf("workloads %v, the benchmark runs %v", got, want)
	}
}

// The heap watcher's sampler goroutine and the caller share the
// high-water mark; stop returns only once the sampler has exited.
func TestHeapWatchSeesAllocationAndStops(t *testing.T) {
	runtime.GC()
	h := startHeapWatch(time.Millisecond)
	h.reset()
	before := h.peak()
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	time.Sleep(5 * time.Millisecond)
	if after := h.peak(); after < before+32<<20 {
		t.Errorf("peak %d after a 64 MiB allocation, %d before", after, before)
	}
	runtime.KeepAlive(buf)
	h.stop()
}
