package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is sorted in place). It returns 0
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// tailLevel returns the percentile to report as a tail of n samples: the
// workload's chosen level, lowered when fewer than minBeyond samples would
// lie above it, to the highest level that still leaves minBeyond above.
func tailLevel(n int, want float64) float64 {
	if n <= minBeyond {
		return 0.5
	}
	top := 1 - float64(minBeyond)/float64(n)
	return max(0.5, min(want, top))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts trace-clock nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
