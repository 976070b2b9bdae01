package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkAggregates recomputes every cached per-node aggregate from the
// adjacency and compares it against the cache: degrees, in-sum, controlling
// stakes. It also checks the storage invariants: dead nodes have no state
// and no edges, and no edge has a dead endpoint. The in-sum is compared
// with a tolerance far below ControlEps, since the cache accumulates deltas
// incrementally.
func checkAggregates(g *Graph) error {
	edges := 0
	for i := range g.alive {
		v := NodeID(i)
		var sum float64
		var big, in, out int32
		bigPred := None
		preds := map[NodeID]float64{}
		var bad error
		g.eachIn(v, func(_ int32, u NodeID, w float64) {
			in++
			sum += w
			preds[u] = w
			if ExceedsControl(w) {
				big++
				bigPred = u
			}
			if !g.alive[u] && bad == nil {
				bad = fmt.Errorf("node %d: in-edge from dead node %d", v, u)
			}
		})
		var outBig int32
		g.eachOut(v, func(_ int32, u NodeID, w float64) {
			out++
			if ExceedsControl(w) {
				outBig++
			}
			if hw, ok := g.Label(v, u); g.alive[v] && (!ok || hw != w) && bad == nil {
				bad = fmt.Errorf("node %d: out-edge to %d (%g) not found by Label (%g,%v)", v, u, w, hw, ok)
			}
		})
		if bad != nil {
			return bad
		}
		edges += int(out)
		s := g.st[v]
		if !g.alive[i] {
			if in != 0 || out != 0 || s != (nodeState{}) {
				return fmt.Errorf("dead node %d keeps edges (%d in, %d out) or state %+v", v, in, out, s)
			}
			continue
		}
		if in != s.inDeg || out != s.outDeg {
			return fmt.Errorf("node %d: cached degrees (%d in, %d out), adjacency has (%d, %d)", v, s.inDeg, s.outDeg, in, out)
		}
		if math.Abs(sum-s.inSum) > 1e-11 {
			return fmt.Errorf("node %d: cached inSum %g, adjacency sums to %g", v, s.inSum, sum)
		}
		if big != s.inBig {
			return fmt.Errorf("node %d: cached inBig %d, adjacency has %d", v, s.inBig, big)
		}
		if outBig != s.outBig {
			return fmt.Errorf("node %d: cached outBig %d, adjacency has %d", v, s.outBig, outBig)
		}
		switch {
		case big == 1:
			if s.bigIn != bigPred {
				return fmt.Errorf("node %d: cached bigIn %d, controlling predecessor is %d", v, s.bigIn, bigPred)
			}
		case big > 1:
			if w, ok := preds[s.bigIn]; !ok || !ExceedsControl(w) {
				return fmt.Errorf("node %d: cached bigIn %d does not hold a controlling stake", v, s.bigIn)
			}
		}
	}
	if edges != g.nEdges {
		return fmt.Errorf("edge count %d, adjacency has %d", g.nEdges, edges)
	}
	return nil
}

// TestAggregatesUnderRandomMutations drives every mutator — including the
// sharded batch ones — with random operations and validates the cached
// aggregates against a from-scratch recomputation after each step.
func TestAggregatesUnderRandomMutations(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 40
		g := New(n)
		check := func(op string) {
			t.Helper()
			if err := checkAggregates(g); err != nil {
				t.Fatalf("seed %d after %s: %v", seed, op, err)
			}
		}
		for step := 0; step < 300; step++ {
			if step%100 == 50 {
				g.compact() // later steps hit base edges too
			}
			u := NodeID(rng.Intn(g.Cap()))
			v := NodeID(rng.Intn(g.Cap()))
			switch op := rng.Intn(10); {
			case op < 4:
				w := rng.Float64()
				if w == 0 {
					w = 0.5
				}
				_ = g.MergeEdge(u, v, w)
				check("MergeEdge")
			case op < 6:
				w := rng.Float64()
				if w == 0 {
					w = 0.5
				}
				_ = g.AddEdge(u, v, w)
				check("AddEdge")
			case op < 7:
				g.RemoveEdge(u, v)
				check("RemoveEdge")
			case op < 8:
				g.RemoveNode(v)
				check("RemoveNode")
			case op < 9:
				dead := make([]bool, g.Cap())
				for i := 0; i < 3; i++ {
					dead[rng.Intn(g.Cap())] = true
				}
				g.ParallelRemove(dead, 1+rng.Intn(4))
				check("ParallelRemove")
			default:
				g.AddNode()
				check("AddNode")
			}
		}
		// Contract every directly-controlled node into its controller once.
		rep := make([]NodeID, g.Cap())
		victims := make([]NodeID, 0, g.Cap())
		for i := range rep {
			rep[i] = None
			v := NodeID(i)
			c := g.DirectController(v)
			if c != None && g.DirectController(c) == None {
				rep[v] = c
				victims = append(victims, v)
			}
		}
		isVictim := make([]bool, g.Cap())
		for _, v := range victims {
			isVictim[v] = true
		}
		g.ParallelContract(rep, 3)
		check("ParallelContract")
	}
}

// TestBatchMatchesFullScan checks that the victim-list batch mutators
// produce the same graph as the full-scan mark-array mutators.
func TestBatchMatchesFullScan(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		const n = 60
		g := New(n)
		for i := 0; i < 150; i++ {
			_ = g.MergeEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), rng.Float64()*0.4+0.05)
		}
		g.compact() // base edges, plus the overlay edges below
		for i := 0; i < 10; i++ {
			_ = g.MergeEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 0.7)
		}
		workers := 1 + rng.Intn(4)

		// Removal: same victim set via mark array and via sorted list.
		dead := make([]bool, n)
		victims := make([]NodeID, 0, 8)
		for v := NodeID(0); v < n; v++ {
			if rng.Intn(6) == 0 {
				dead[v] = true
				victims = append(victims, v)
			}
		}
		full := g.Clone()
		batch := g.Clone()
		removedFull := full.ParallelRemoveMetered(nil, dead, workers)
		removedBatch, touched := batch.RemoveBatchMetered(nil, victims, dead, workers, nil)
		if removedFull != removedBatch {
			t.Fatalf("seed %d: removed %d (full) vs %d (batch)", seed, removedFull, removedBatch)
		}
		requireEqualGraphs(t, seed, "remove", full, batch)
		if err := checkAggregates(batch); err != nil {
			t.Fatalf("seed %d after batch remove: %v", seed, err)
		}
		requireTouchedCoversNeighbors(t, seed, g, victims, touched)

		// Contraction: contract layer-1 C3 nodes (controller not itself contracted).
		rep := make([]NodeID, n)
		cvict := make([]NodeID, 0, 8)
		for i := range rep {
			rep[i] = None
		}
		for v := NodeID(0); v < n; v++ {
			c := batch.DirectController(v)
			if c != None && batch.DirectController(c) == None {
				rep[v] = c
				cvict = append(cvict, v)
			}
		}
		fullC := batch.Clone()
		batchC := batch.Clone()
		contractedFull := fullC.ParallelContractMetered(nil, rep, workers)
		contractedBatch, _ := batchC.ContractBatchMetered(nil, cvict, rep, workers, nil)
		if contractedFull != contractedBatch {
			t.Fatalf("seed %d: contracted %d (full) vs %d (batch)", seed, contractedFull, contractedBatch)
		}
		requireEqualGraphs(t, seed, "contract", fullC, batchC)
		if err := checkAggregates(batchC); err != nil {
			t.Fatalf("seed %d after batch contract: %v", seed, err)
		}
	}
}

func requireEqualGraphs(t *testing.T, seed int64, op string, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("seed %d %s: %v vs %v", seed, op, a, b)
	}
	for v := NodeID(0); int(v) < a.Cap(); v++ {
		if a.Alive(v) != b.Alive(v) {
			t.Fatalf("seed %d %s: node %d alive mismatch", seed, op, v)
		}
		a.EachOut(v, func(u NodeID, w float64) {
			if bw, ok := b.Label(v, u); !ok || bw != w {
				t.Fatalf("seed %d %s: edge (%d,%d) label %g vs %g (exists=%v)", seed, op, v, u, w, bw, ok)
			}
		})
		if a.OutDegree(v) != b.OutDegree(v) || a.InDegree(v) != b.InDegree(v) {
			t.Fatalf("seed %d %s: node %d degree mismatch", seed, op, v)
		}
	}
}

// requireTouchedCoversNeighbors checks the frontier contract: every surviving
// neighbor of a removed node appears in the touched set.
func requireTouchedCoversNeighbors(t *testing.T, seed int64, orig *Graph, victims []NodeID, touched [][]NodeID) {
	t.Helper()
	isVictim := make(map[NodeID]bool, len(victims))
	for _, v := range victims {
		isVictim[v] = true
	}
	got := make(map[NodeID]bool)
	for _, shard := range touched {
		for _, v := range shard {
			got[v] = true
		}
	}
	for _, v := range victims {
		if !orig.Alive(v) {
			continue
		}
		orig.EachIn(v, func(u NodeID, _ float64) {
			if !isVictim[u] && !got[u] {
				t.Fatalf("seed %d: predecessor %d of removed %d missing from touched set", seed, u, v)
			}
		})
		orig.EachOut(v, func(u NodeID, _ float64) {
			if !isVictim[u] && !got[u] {
				t.Fatalf("seed %d: successor %d of removed %d missing from touched set", seed, u, v)
			}
		})
	}
}
