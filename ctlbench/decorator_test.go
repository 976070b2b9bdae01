package main

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/dist"
	"ccp/internal/fleet"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// tapped is a small in-process cluster with every decorator the benchmark
// installs: a gate, a plain site client, and a replica set whose members
// are tapped too.
type tapped struct {
	g       *graph.Graph
	coord   *dist.Coordinator
	gate    *gateTap
	route   *clientTap
	leaves  []*clientTap
	queries []control.Query
}

func newTapped(t *testing.T) *tapped {
	t.Helper()
	eu := gen.EU(gen.EUConfig{Countries: 2, NodesPerCountry: 400, InterconnectRate: 0.05, AvgOutDegree: 3, Seed: 7})
	split := func() *partition.Partitioning {
		pi, err := partition.ByContiguous(eu.G, 2)
		if err != nil {
			t.Fatal(err)
		}
		return pi
	}
	a, b := split(), split()
	local := func(p *partition.Partition) dist.SiteClient {
		return &dist.LocalClient{Site: dist.NewSite(p, 1), MeasureBytes: true}
	}
	tc := &tapped{g: eu.G, gate: &gateTap{inner: fleet.NewGate(fleet.GateConfig{MaxInFlight: 4})}}
	plain := &clientTap{SiteClient: local(a.Parts[0]), layer: layerClient}
	leader := &clientTap{SiteClient: local(a.Parts[1]), layer: layerClient}
	follower := &clientTap{SiteClient: local(b.Parts[1]), layer: layerClient, member: 1}
	tc.leaves = []*clientTap{plain, leader, follower}
	tc.route = &clientTap{SiteClient: fleet.NewReplicaSet(leader, []dist.SiteClient{follower}, fleet.ReplicaSetConfig{}), layer: layerRoute}
	tc.coord = dist.NewCoordinator([]dist.SiteClient{plain, tc.route},
		dist.Options{UseCache: true, Workers: 1, AdmissionGate: tc.gate})
	if err := tc.coord.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for len(tc.queries) < 12 {
		q := control.Query{S: graph.NodeID(rng.Intn(800)), T: graph.NodeID(rng.Intn(800))}
		if q.S != q.T {
			tc.queries = append(tc.queries, q)
		}
	}
	return tc
}

// selfByLayer runs every query traced and returns the median self time of
// each layer, in milliseconds, summed per query.
func (tc *tapped) selfByLayer(t *testing.T) map[string]float64 {
	t.Helper()
	per := map[string][]float64{}
	for _, q := range tc.queries {
		tr := newTrace(layerCoord, now())
		got, _, err := tc.coord.Answer(withTrace(context.Background(), tr), q)
		tr.finish(now())
		if err != nil {
			t.Fatal(err)
		}
		if want := control.CBE(tc.g, q); got != want {
			t.Fatalf("%v: traced answer %v, oracle %v", q, got, want)
		}
		sum := map[string]int64{}
		for i, d := range selfTimes(tr.spans) {
			sum[tr.spans[i].layer] += d
		}
		for layer, d := range sum {
			per[layer] = append(per[layer], ms(d))
		}
	}
	out := map[string]float64{}
	for layer, xs := range per {
		out[layer] = median(xs)
	}
	return out
}

// A delay injected into one decorator shows in that layer's self time and
// in no other layer's.
func TestInjectedDelayShowsInItsLayerOnly(t *testing.T) {
	const delay = 15 * time.Millisecond
	tc := newTapped(t)
	tc.selfByLayer(t) // warm every cache
	base := tc.selfByLayer(t)
	for _, layer := range []string{layerCoord, layerGate, layerRoute, layerClient} {
		if _, ok := base[layer]; !ok {
			t.Fatalf("no %s spans in the baseline: %v", layer, base)
		}
	}
	for _, tcase := range []struct {
		layer  string
		inject func(d time.Duration)
	}{
		{layerGate, func(d time.Duration) { tc.gate.delay = d }},
		{layerRoute, func(d time.Duration) { tc.route.delay = d }},
		{layerClient, func(d time.Duration) {
			for _, l := range tc.leaves {
				l.delay = d
			}
		}},
	} {
		tcase.inject(delay)
		got := tc.selfByLayer(t)
		tcase.inject(0)
		for layer, b := range base {
			grew := got[layer] - b
			if layer == tcase.layer {
				if grew < 0.8*ms(int64(delay)) {
					t.Errorf("delay in %s: its self time grew %.2f ms, want about %v", tcase.layer, grew, delay)
				}
				continue
			}
			if grew > 0.3*ms(int64(delay)) {
				t.Errorf("delay in %s: %s self time grew %.2f ms, want no change", tcase.layer, layer, grew)
			}
		}
	}
}

// Without a trace in the context the decorators pass calls through: the
// answers stay right and the gate and clients still work.
func TestUntracedCallsPassThrough(t *testing.T) {
	tc := newTapped(t)
	for _, q := range tc.queries {
		got, _, err := tc.coord.Answer(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if want := control.CBE(tc.g, q); got != want {
			t.Fatalf("%v: answer %v, oracle %v", q, got, want)
		}
	}
}
