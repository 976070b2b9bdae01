package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// applyRandomMutation performs one random mutator call on g (and, when twin
// is non-nil, the identical call on twin) so tests can drive a clone that
// shares a base and an independently built reference through the same
// history.
func applyRandomMutation(rng *rand.Rand, g, twin *Graph) {
	n := NodeID(g.Cap())
	if n == 0 {
		return
	}
	u, v := NodeID(rng.Intn(int(n))), NodeID(rng.Intn(int(n)))
	switch rng.Intn(10) {
	case 0:
		g.RemoveNode(v)
		if twin != nil {
			twin.RemoveNode(v)
		}
	case 1:
		g.Revive(v)
		if twin != nil {
			twin.Revive(v)
		}
	case 2:
		g.RemoveEdge(u, v)
		if twin != nil {
			twin.RemoveEdge(u, v)
		}
	default:
		w := 0.05 + 0.4*rng.Float64()
		g.MergeEdge(u, v, w)
		if twin != nil {
			twin.MergeEdge(u, v, w)
		}
	}
}

func randomMergedGraph(rng *rand.Rand, n, edges int) *Graph {
	g := New(n)
	for i := 0; i < edges; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		g.MergeEdge(u, v, 0.05+0.3*rng.Float64())
	}
	return g
}

// deepCopy rebuilds g through the codec, so the result shares no storage
// with g or any of its clones.
func deepCopy(t testing.TB, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSnapshotCloneIsolation drives a graph through many epochs of random
// mutations, cloning along the way, and checks that (a) every clone still
// equals an independent copy taken at its epoch — no mutation ever leaked
// through the shared base — and (b) the live graph equals a twin that took
// the same mutations without ever being cloned.
func TestSnapshotCloneIsolation(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomMergedGraph(rng, 40, 120)
		twin := deepCopy(t, g)

		type epoch struct {
			snap, ref *Graph
		}
		var epochs []epoch
		for step := 0; step < 400; step++ {
			if step%25 == 0 {
				sn := g.Clone()
				epochs = append(epochs, epoch{snap: sn, ref: deepCopy(t, sn)})
			}
			applyRandomMutation(rng, g, twin)
		}
		if !Equal(g, twin, 0) {
			t.Fatalf("seed %d: live graph diverged from its never-cloned twin", seed)
		}
		for i, e := range epochs {
			if !Equal(e.snap, e.ref, 0) {
				t.Fatalf("seed %d: clone %d mutated after later updates", seed, i)
			}
			if err := checkAggregates(e.snap); err != nil {
				t.Fatalf("seed %d: clone %d aggregates: %v", seed, i, err)
			}
		}
		if err := checkAggregates(g); err != nil {
			t.Fatalf("seed %d: live aggregates: %v", seed, err)
		}
	}
}

// TestSnapshotCloneChain checks that clones of clones (and mutating a clone
// itself) keep every generation isolated.
func TestSnapshotCloneChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomMergedGraph(rng, 30, 80)

	s1 := g.Clone()
	ref1 := deepCopy(t, s1)
	s2 := s1.Clone() // a clone of a clone
	ref2 := deepCopy(t, s2)

	// Mutate every generation independently.
	for i := 0; i < 200; i++ {
		applyRandomMutation(rng, g, nil)
		applyRandomMutation(rng, s2, nil)
	}
	if !Equal(s1, ref1, 0) {
		t.Fatal("middle clone mutated by sibling writes")
	}
	if Equal(s2, ref2, 0) {
		t.Fatal("mutations on s2 had no effect — test is vacuous")
	}
	if err := checkAggregates(g); err != nil {
		t.Fatalf("live aggregates: %v", err)
	}
	if err := checkAggregates(s2); err != nil {
		t.Fatalf("clone aggregates: %v", err)
	}
}

// TestSnapshotParticipantRecycled checks that Reset, CloneInto and
// DecodeBinaryInto are safe on a graph whose base a clone still shares: the
// clone must keep its view, the recycled graph must behave like fresh
// scratch.
func TestSnapshotParticipantRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := deepCopy(t, randomMergedGraph(rng, 20, 50)) // g owns a bulk-built base
	sn := g.Clone()
	ref := deepCopy(t, sn)

	// Reset the live side while the clone is alive.
	g.Reset()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("reset left %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !Equal(sn, ref, 0) {
		t.Fatal("Reset on the live graph changed a clone sharing its base")
	}

	// Decode into a graph whose base a clone shares.
	h := deepCopy(t, randomMergedGraph(rng, 25, 60))
	hc := h.Clone()
	hRef := deepCopy(t, hc)
	var buf bytes.Buffer
	if err := randomMergedGraph(rng, 25, 60).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinaryInto(h, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !Equal(hc, hRef, 0) {
		t.Fatal("decoding into a graph changed a clone sharing its base")
	}

	// CloneInto a graph that is itself a clone.
	src := randomMergedGraph(rng, 25, 60)
	got := src.CloneInto(sn)
	if !Equal(got, src, 0) {
		t.Fatal("CloneInto a clone lost edges")
	}
	if err := checkAggregates(got); err != nil {
		t.Fatalf("recycled aggregates: %v", err)
	}
}

// TestSnapshotCloneGrowth checks id-space growth on both sides of a clone.
func TestSnapshotCloneGrowth(t *testing.T) {
	g := New(4)
	g.MergeEdge(0, 1, 0.6)
	sn := g.Clone()

	id := g.AddNode()
	g.MergeEdge(id, 0, 0.3)
	g.Revive(NodeID(40))
	g.MergeEdge(40, 1, 0.2)

	if sn.Cap() != 4 {
		t.Fatalf("clone grew to cap %d", sn.Cap())
	}
	if w, ok := g.Label(40, 1); !ok || w != 0.2 {
		t.Fatalf("live graph lost post-clone edge: %v %v", w, ok)
	}
	if sn.HasEdge(id, 0) {
		t.Fatal("clone sees post-clone edge")
	}
	if err := checkAggregates(g); err != nil {
		t.Fatalf("aggregates after growth: %v", err)
	}
}

// TestCompactionKeepsGraph drives a graph through enough single-edge
// updates to fold its overlay into new bases several times, checking it
// against the map-based reference model after every step, with clones
// taken before each fold that must not move.
func TestCompactionKeepsGraph(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(11))
	g := New(n)
	m := newModel(n)
	var clones, refs []*Graph
	bases := map[*csr]bool{}
	for step := 0; step < 6000; step++ {
		if step%500 == 0 {
			c := g.Clone()
			clones, refs = append(clones, c), append(refs, deepCopy(t, c))
		}
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		switch rng.Intn(12) {
		case 0:
			g.RemoveNode(v)
			m.removeNode(v)
		case 1:
			g.Revive(v)
			m.alive[v] = true
		case 2, 3:
			g.RemoveEdge(u, v)
			m.removeEdge(u, v)
		default:
			w := 0.05 + 0.4*rng.Float64()
			g.MergeEdge(u, v, w)
			m.mergeEdge(u, v, w)
		}
		if step%100 == 0 {
			m.check(t, g, step)
		}
		bases[g.base] = true
	}
	m.check(t, g, -1)
	if len(bases) < 4 {
		t.Fatalf("overlay folded into a new base only %d times", len(bases)-1)
	}
	if err := checkAggregates(g); err != nil {
		t.Fatal(err)
	}
	for i := range clones {
		if !Equal(clones[i], refs[i], 0) {
			t.Fatalf("clone %d changed when its source compacted", i)
		}
	}
}
