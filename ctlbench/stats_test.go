package main

import (
	"math"
	"testing"
)

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want, got  float64
		beyondLeft bool
	}{
		{n: 100000, want: 0.999, got: 0.999},
		{n: 10000, want: 0.999, got: 0.999},
		{n: 5000, want: 0.999, got: 0.998},
		{n: 1000, want: 0.99, got: 0.99},
		{n: 500, want: 0.99, got: 0.98},
		{n: 64, want: 0.8, got: 0.8},
		{n: 40, want: 0.8, got: 0.75},
		{n: 10, want: 0.99, got: 0.5},
	} {
		level := tailLevel(tc.n, tc.want)
		if math.Abs(level-tc.got) > 1e-12 {
			t.Errorf("tailLevel(%d, %v) = %v, want %v", tc.n, tc.want, level, tc.got)
		}
		if tc.n > minBeyond {
			if beyond := float64(tc.n) * (1 - level); beyond < minBeyond-1e-9 {
				t.Errorf("tailLevel(%d, %v) = %v leaves %.2f samples beyond it", tc.n, tc.want, level, beyond)
			}
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}
