package main

import "testing"

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{layer: layerCoord, start: 0, end: 100, parent: noParentSpan},
		{layer: layerGate, start: 0, end: 10, parent: 0},
		// Four parallel site calls: three overlap, one sits apart.
		{layer: layerClient, start: 20, end: 60, parent: 0},
		{layer: layerClient, start: 25, end: 50, parent: 0},
		{layer: layerClient, start: 40, end: 70, parent: 0},
		{layer: layerClient, start: 80, end: 90, parent: 0},
	}
	self := selfTimes(spans)
	// Children cover [0,10] ∪ [20,70] ∪ [80,90] = 70 of the root's 100.
	if self[0] != 30 {
		t.Errorf("root self = %d, want 30", self[0])
	}
	for i := 1; i < len(spans); i++ {
		if self[i] != spans[i].dur() {
			t.Errorf("leaf %d self = %d, want its duration %d", i, self[i], spans[i].dur())
		}
	}
}

func TestSelfTimeNestsAndClipsChildren(t *testing.T) {
	spans := []span{
		{layer: layerCoord, start: 0, end: 100, parent: noParentSpan},
		{layer: layerRoute, start: 10, end: 60, parent: 0},
		{layer: layerClient, start: 15, end: 30, parent: 1}, // follower, stale
		{layer: layerClient, start: 35, end: 70, parent: 1}, // leader, runs past its parent
	}
	self := selfTimes(spans)
	if self[1] != 50-15-25 {
		t.Errorf("route self = %d, want %d", self[1], 50-15-25)
	}
	if self[0] != 50 {
		t.Errorf("root self = %d, want 50 (grandchildren do not count)", self[0])
	}
}

func TestUnion(t *testing.T) {
	for _, tc := range []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{0, 5}, {5, 10}}, 0, 10, 10},
		{[][2]int64{{2, 4}, {0, 3}, {8, 20}}, 0, 10, 6},
		{[][2]int64{{0, 10}, {2, 3}}, 0, 10, 10},
		{[][2]int64{{-5, 1}, {12, 15}}, 0, 10, 1},
	} {
		if got := union(tc.iv, tc.lo, tc.hi); got != tc.want {
			t.Errorf("union(%v, %d, %d) = %d, want %d", tc.iv, tc.lo, tc.hi, got, tc.want)
		}
	}
}
