package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// mustAggregates asserts the cached per-node aggregates match the adjacency
// (reuse paths must leave a graph indistinguishable from one built edge by
// edge); checkAggregates lives in aggregates_test.go.
func mustAggregates(t *testing.T, g *Graph) {
	t.Helper()
	if err := checkAggregates(g); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIntoMatchesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// One reused destination across differently-shaped graphs: shrinking,
	// growing, and same-size clones must all land exact.
	dst := New(0)
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 2+rng.Intn(80), rng.Intn(200))
		dst = g.CloneInto(dst)
		if !Equal(g, dst, 0) {
			t.Fatalf("trial %d: CloneInto diverged from source", trial)
		}
		mustAggregates(t, dst)
		// The copy must be independent: mutating it may not touch the source.
		before := g.NumEdges()
		dst.EachNode(func(v NodeID) {
			if dst.NumEdges() > 0 {
				dst.RemoveNode(v)
			}
		})
		if g.NumEdges() != before {
			t.Fatalf("trial %d: mutating the clone changed the source", trial)
		}
	}
	if got := New(5).CloneInto(nil); got == nil || got.NumNodes() != 5 {
		t.Fatal("CloneInto(nil) must behave like Clone")
	}
	g := New(3)
	if got := g.CloneInto(g); got == g || !Equal(got, g, 0) {
		t.Fatal("CloneInto(self) must return an independent copy")
	}
}

// TestCloneIntoSteadyStateZeroAlloc pins the per-query pattern of a site:
// copy the partition into a pooled graph, reduce the copy (removal and
// contraction rounds retire base edges and add overlay records), repeat.
// Once the pooled graph's buffers have grown, the cycle allocates nothing.
func TestCloneIntoSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := deepCopy(t, randomGraph(rng, 200, 600))
	ref := deepCopy(t, g)
	isVictim := make([]bool, g.Cap())
	var victims []NodeID
	for v := NodeID(0); int(v) < g.Cap(); v += 3 {
		isVictim[v] = true
		victims = append(victims, v)
	}
	// The contraction round is planned on the post-removal state, which is
	// the same on every cycle.
	probe := g.Clone()
	probe.RemoveBatchMetered(nil, victims, isVictim, 1, nil)
	rep := make([]NodeID, g.Cap())
	var cvict []NodeID
	for i := range rep {
		rep[i] = None
		v := NodeID(i)
		if c := probe.DirectController(v); c != None && probe.DirectController(c) == None {
			rep[v] = c
			cvict = append(cvict, v)
		}
	}
	if len(cvict) == 0 {
		t.Fatal("no contraction planned — test is vacuous")
	}
	var sc BatchScratch
	dst := New(0)
	cycle := func() {
		dst = g.CloneInto(dst)
		dst.RemoveBatchMetered(nil, victims, isVictim, 1, &sc)
		dst.ContractBatchMetered(nil, cvict, rep, 1, &sc)
	}
	cycle()
	mustAggregates(t, dst)
	if len(dst.ov) == 0 || len(dst.gone) == 0 {
		t.Fatal("the reduction left the overlay empty — test is vacuous")
	}
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state CloneInto+reduce allocated %.1f times per cycle, want 0", allocs)
	}
	if !Equal(ref, g, 0) || g.NumEdges() != ref.NumEdges() {
		t.Fatal("reducing the copies changed the source")
	}
}

func TestResetKeepsCapacityAndRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGraph(rng, 60, 150)
	g.Reset()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("after Reset: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Cap() != 60 {
		t.Fatalf("Reset changed capacity to %d", g.Cap())
	}
	mustAggregates(t, g)
	// A reset graph must accept a full rebuild through the public mutators.
	g.Revive(4)
	g.Revive(9)
	if err := g.AddEdge(4, 9, 0.8); err != nil {
		t.Fatal(err)
	}
	if g.DirectController(9) != 4 {
		t.Fatal("rebuild after Reset lost the controlling stake")
	}
}

func TestDecodeBinaryMatchesReadBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 2+rng.Intn(80), rng.Intn(200))
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := DecodeBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !Equal(g, h, 0) {
			t.Fatalf("trial %d: DecodeBinary diverged from source", trial)
		}
		mustAggregates(t, h)
	}
}

func TestDecodeBinaryIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	dst := New(0)
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 2+rng.Intn(80), rng.Intn(200))
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		var err error
		dst, err = DecodeBinaryInto(dst, buf.Bytes())
		if err != nil {
			t.Fatalf("trial %d: decode into: %v", trial, err)
		}
		if !Equal(g, dst, 0) {
			t.Fatalf("trial %d: DecodeBinaryInto diverged from source", trial)
		}
		mustAggregates(t, dst)
	}
}

func TestDecodeBinaryIntoSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	g := randomGraph(rng, 200, 600)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	dst, err := DecodeBinaryInto(New(0), payload)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if dst, err = DecodeBinaryInto(dst, payload); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeBinaryInto allocated %.1f times per run, want 0", allocs)
	}
}

func TestDecodeBinaryRejectsGarbage(t *testing.T) {
	if _, err := DecodeBinary([]byte("not a graph at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeBinary(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	g := New(3)
	if err := g.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := len(binaryMagic); cut < len(full); cut += 3 {
		if _, err := DecodeBinary(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestDecodeIntoRegrownBuffersStartsBare decodes into a pooled graph whose
// per-node buffers once held a longer, fully wired graph: ids the decode
// adds back must come up dead and bare, even where the live-flag and state
// buffers kept different capacities.
func TestDecodeIntoRegrownBuffersStartsBare(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	long := randomGraph(rng, 300, 900)
	dst := long.CloneInto(New(0))
	dst = New(10).CloneInto(dst) // shrink: the tail keeps long's state
	dst.alive = append([]bool(nil), dst.alive...)
	var buf bytes.Buffer
	if err := randomGraph(rng, 200, 300).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinaryInto(dst, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mustAggregates(t, got)
}
