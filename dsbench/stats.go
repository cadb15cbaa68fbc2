package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileLadder is the set of percentiles a tail figure may be
// reported at, highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// highPercentile returns the highest percentile on the ladder whose
// nearest-rank value still has at least minBeyond samples above it, and
// that value. It reports ok=false when the sample is too small for even
// the median to have minBeyond samples beyond it.
func highPercentile(xs []float64, minBeyond int) (p, v float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range percentileLadder {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // tolerate p*n rounding up
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
