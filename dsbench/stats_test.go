package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestHighPercentileKeepsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p, v float64
	}{
		{20, 50, 10},
		{100, 90, 90},
		{1000, 99, 990},
		{10000, 99.9, 9990},
	} {
		p, v, ok := highPercentile(seq(c.n), 10)
		if !ok || p != c.p || v != c.v {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v", c.n, p, v, ok, c.p, c.v)
		}
	}
	if _, _, ok := highPercentile(seq(19), 10); ok {
		t.Error("19 samples cannot have 10 beyond the median")
	}
}
