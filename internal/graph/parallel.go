package graph

import (
	"ccp/internal/par"
)

// ControlEps absorbs float64 rounding in control-threshold comparisons:
// 0.3+0.2 must not be considered "more than half".
const ControlEps = 1e-9

// ExceedsControl reports whether an ownership fraction x is strictly more
// than half, with rounding slack.
func ExceedsControl(x float64) bool { return x > ControlThreshold+ControlEps }

// mutKind tags a mutation emitted by the collect step of a batch round.
type mutKind uint8

const (
	delOut   mutKind = iota // edge (Owner, Other) with label W left Owner's out-adjacency
	delIn                   // edge (Other, Owner) with label W left Owner's in-adjacency
	transfer                // R3: add W to the label of edge (Owner, Other), inserting it if missing
)

// mutation is one update emitted by a batch round. Deletions are routed to
// the shard owning Owner; transfers all go to one extra shard, which keeps
// them in emission order.
type mutation struct {
	Owner, Other NodeID
	W            float64
	Kind         mutKind
}

// shardOf routes node ids to shards.
func shardOf(v NodeID, shards int) int { return int(v) % shards }

// applyDeletes folds sharded deletions into the owners' degrees and cached
// aggregates; each shard's owners are written by exactly one goroutine. The
// edges themselves are already retired (killList), so a controlling-stake
// rescan sees the post-round adjacency. It returns the net edge-count delta
// (counted on the out side, since every edge has one source) plus the
// per-shard touched sets: the surviving owners whose adjacency — and
// therefore possibly class — changed. Touched lists may contain duplicates
// (consecutive ones are folded); callers dedup with a bitset.
func (g *Graph) applyDeletes(m *par.Meter, ops par.Buckets[mutation]) (int, [][]NodeID) {
	deltas := make([]int, ops.Shards())
	touched := make([][]NodeID, ops.Shards())
	par.MeteredRunSharded(m, ops, func(s int, items []mutation) {
		d := 0
		t := make([]NodeID, 0, len(items))
		last := None
		for _, mu := range items {
			st := &g.st[mu.Owner]
			if mu.Kind == delOut {
				st.outDeg--
				g.accountOut(mu.Owner, mu.W, 0)
				d--
			} else {
				st.inDeg--
				g.accountIn(mu.Other, mu.Owner, mu.W, 0)
			}
			if mu.Owner != last {
				t = append(t, mu.Owner)
				last = mu.Owner
			}
		}
		deltas[s] = d
		touched[s] = t
	})
	total := 0
	for _, d := range deltas {
		total += d
	}
	return total, touched
}

// applyTransfers applies R3 label transfers one by one in emission order,
// so that every merged label sums its contributions in the same order as
// the single-worker path. It returns the touched nodes.
func (g *Graph) applyTransfers(items []mutation) []NodeID {
	t := make([]NodeID, 0, 2*len(items))
	for _, mu := range items {
		g.mergeInto(mu.Owner, mu.Other, mu.W)
		t = append(t, mu.Owner, mu.Other)
	}
	return t
}

// killList retires every edge of the listed live nodes, marks them dead
// and clears their state, in parallel blocks of the list. It returns
// (nodesRemoved, outEdgesCleared). Each edge has exactly one writer: a
// victim retires all its out-edges and those in-edges whose source is not
// a victim, and reads nothing another block writes. Duplicate ids in the
// list are not allowed.
func (g *Graph) killList(m *par.Meter, victims []NodeID, isVictim func(NodeID) bool, workers int) (int, int) {
	type delta struct{ nodes, edges int }
	g.reserveGone()
	n := len(victims)
	blocks := make([]delta, par.Blocks(n, workers))
	par.MeteredForBlocks(m, n, workers, func(blk, lo, hi int) {
		var d delta
		for _, v := range victims[lo:hi] {
			if !g.alive[v] {
				continue
			}
			d.nodes++
			d.edges += int(g.st[v].outDeg)
			if b := g.base; b.has(v) {
				for e := b.outOff[v]; e < b.outOff[v+1]; e++ {
					g.gone[e] = true
				}
				for j := b.inOff[v]; j < b.inOff[v+1]; j++ {
					if !isVictim(b.inSrc[j]) {
						g.gone[b.inEdge[j]] = true
					}
				}
			}
			for k := g.st[v].ovOut; k != 0; k = g.ov[k-1].nextOut {
				g.ov[k-1].w = 0
			}
			for k := g.st[v].ovIn; k != 0; k = g.ov[k-1].nextIn {
				if !isVictim(g.ov[k-1].from) {
					g.ov[k-1].w = 0
				}
			}
			g.alive[v] = false
			g.st[v] = nodeState{}
		}
		blocks[blk] = d
	})
	var nodes, edges int
	for _, d := range blocks {
		nodes += d.nodes
		edges += d.edges
	}
	return nodes, edges
}

// killSerial marks the listed live nodes dead, clears their state and
// drops their out-edges from the edge count; their edges must already be
// retired. It returns the number of nodes removed.
func (g *Graph) killSerial(victims []NodeID) int {
	nodes := 0
	for _, v := range victims {
		if !g.alive[v] {
			continue
		}
		nodes++
		g.nEdges -= int(g.st[v].outDeg)
		g.alive[v] = false
		g.st[v] = nodeState{}
	}
	g.nAlive -= nodes
	return nodes
}

// ParallelRemove removes every node v with dead[v] set, together with all its
// incident edges — the parallel clean step applying rules R1/R2 to a whole
// batch of nodes at once. dead must have length Cap(). It returns the number
// of nodes removed.
func (g *Graph) ParallelRemove(dead []bool, workers int) int {
	return g.ParallelRemoveMetered(nil, dead, workers)
}

// ParallelRemoveMetered is ParallelRemove with its parallel steps recorded
// into m (which may be nil). It scans the mark array for the victims and
// runs RemoveBatchMetered on them.
func (g *Graph) ParallelRemoveMetered(m *par.Meter, dead []bool, workers int) int {
	var victims []NodeID
	for i, d := range dead {
		if d && g.alive[i] {
			victims = append(victims, NodeID(i))
		}
	}
	nodes, _ := g.RemoveBatchMetered(m, victims, dead, workers, nil)
	return nodes
}

// BatchScratch owns the reusable buffers of the single-worker batch-mutator
// paths, so that steady-state rounds of a reduction allocate nothing. The
// zero value is ready to use; pass nil to let each call allocate afresh. The
// touched sets returned by a batch call share the scratch's buffers and are
// valid only until the next batch call using the same scratch. Not safe for
// concurrent use.
type BatchScratch struct {
	t  []NodeID
	tt [][]NodeID
}

// touchedSet stores t as the scratch's single touched shard and returns it.
func (sc *BatchScratch) touchedSet(t []NodeID) [][]NodeID {
	sc.t = t
	sc.tt = append(sc.tt[:0], t)
	return sc.tt
}

// RemoveBatchMetered removes exactly the listed nodes together with all
// their incident edges — the frontier-engine form of ParallelRemove, whose
// per-round cost is proportional to the victims and their edges rather than
// the whole id space. victims must be duplicate-free and sorted ascending;
// isVictim must have length Cap with isVictim[v] set exactly for the
// victims. It returns the number of nodes removed and the per-shard touched
// sets (surviving neighbors whose adjacency changed). sc may be nil.
func (g *Graph) RemoveBatchMetered(m *par.Meter, victims []NodeID, isVictim []bool, workers int, sc *BatchScratch) (int, [][]NodeID) {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	if m == nil && workers == 1 {
		return g.removeBatchSerial(victims, isVictim, sc)
	}
	ops := par.MeteredCollect(m, len(victims), workers, func(i int, emit func(int, mutation)) {
		v := victims[i]
		if !g.alive[v] {
			return
		}
		g.eachIn(v, func(_ int32, p NodeID, w float64) {
			if !isVictim[p] {
				emit(shardOf(p, workers), mutation{Owner: p, Other: v, W: w, Kind: delOut})
			}
		})
		g.eachOut(v, func(_ int32, u NodeID, w float64) {
			if !isVictim[u] {
				emit(shardOf(u, workers), mutation{Owner: u, Other: v, W: w, Kind: delIn})
			}
		})
	})
	nodes, cleared := g.killList(m, victims, func(v NodeID) bool { return isVictim[v] }, workers)
	edgeDelta, touched := g.applyDeletes(m, ops)
	g.nAlive -= nodes
	g.nEdges += edgeDelta - cleared
	return nodes, touched
}

// removeBatchSerial is the single-worker path of RemoveBatchMetered: the
// same deletions and aggregate updates, applied inline in emission order
// with no sharding machinery and no allocations beyond the scratch. Each
// edge is retired exactly once: a victim's out-edges from its own row, its
// in-edges from surviving sources from its in-row, the rest from the
// source victim's out-row.
func (g *Graph) removeBatchSerial(victims []NodeID, isVictim []bool, sc *BatchScratch) (int, [][]NodeID) {
	if sc == nil {
		sc = &BatchScratch{}
	}
	t := sc.t[:0]
	last := None
	note := func(v NodeID) {
		if v != last {
			t = append(t, v)
			last = v
		}
	}
	for _, v := range victims {
		if !g.alive[v] {
			continue
		}
		g.eachIn(v, func(h int32, p NodeID, w float64) {
			if isVictim[p] {
				return
			}
			g.retire(h)
			g.st[p].outDeg--
			g.accountOut(p, w, 0)
			g.nEdges--
			note(p)
		})
		g.eachOut(v, func(h int32, u NodeID, w float64) {
			g.retire(h)
			if isVictim[u] {
				return
			}
			g.st[u].inDeg--
			g.accountIn(v, u, w, 0)
			note(u)
		})
	}
	nodes := g.killSerial(victims)
	return nodes, sc.touchedSet(t)
}

// ParallelContract applies reduction rule R3 to every node v whose rep[v] is
// a node different from v: v is removed, its incoming edges are deleted, and
// its outgoing edges are transferred to rep[v] with parallel-edge labels
// merged and self loops dropped.
//
// rep must have length Cap(). rep[v] == None means v is untouched;
// rep[v] == v means v survives this round (it is the collapse point of a
// cycle of directly-controlled nodes). Every contracted node's rep must be a
// node that survives the round. It returns the number of nodes contracted.
func (g *Graph) ParallelContract(rep []NodeID, workers int) int {
	return g.ParallelContractMetered(nil, rep, workers)
}

// ParallelContractMetered is ParallelContract with its parallel steps
// recorded into m (which may be nil). It scans rep for the victims and runs
// ContractBatchMetered on them.
func (g *Graph) ParallelContractMetered(m *par.Meter, rep []NodeID, workers int) int {
	var victims []NodeID
	for i, r := range rep {
		if r != None && r != NodeID(i) && g.alive[i] {
			victims = append(victims, NodeID(i))
		}
	}
	nodes, _ := g.ContractBatchMetered(m, victims, rep, workers, nil)
	return nodes
}

// ContractBatchMetered applies rule R3 to exactly the listed nodes — the
// frontier-engine form of ParallelContract. victims must be duplicate-free,
// sorted ascending, and satisfy rep[v] != None && rep[v] != v for every
// entry; rep must have length Cap and follow the ParallelContract contract
// for every node id (None for untouched nodes). It returns the number of
// nodes contracted and the per-shard touched sets: surviving neighbors whose
// edges were deleted, representatives that received transferred edges, and
// transfer targets. sc may be nil.
//
// With several workers the collect and delete steps run sharded, and the
// transfers — which insert edges — run on one goroutine in emission order,
// so merged labels are bit-identical to the single-worker path.
func (g *Graph) ContractBatchMetered(m *par.Meter, victims []NodeID, rep []NodeID, workers int, sc *BatchScratch) (int, [][]NodeID) {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	if m == nil && workers == 1 {
		return g.contractBatchSerial(victims, rep, sc)
	}
	contracted := func(v NodeID) bool {
		r := rep[v]
		return r != None && r != v
	}
	ops := par.MeteredCollect(m, len(victims), workers+1, func(i int, emit func(int, mutation)) {
		v := victims[i]
		if !g.alive[v] || !contracted(v) {
			return
		}
		r := rep[v]
		g.eachIn(v, func(_ int32, p NodeID, w float64) {
			if !contracted(p) {
				emit(shardOf(p, workers), mutation{Owner: p, Other: v, W: w, Kind: delOut})
			}
		})
		g.eachOut(v, func(_ int32, u NodeID, w float64) {
			if contracted(u) {
				// u dies this round; the edge vanishes with it.
				return
			}
			emit(shardOf(u, workers), mutation{Owner: u, Other: v, W: w, Kind: delIn})
			if u != r {
				// Transferring (v, r) to r would create a self loop; R3
				// excludes it.
				emit(workers, mutation{Owner: r, Other: u, W: w, Kind: transfer})
			}
		})
	})
	nodes, cleared := g.killList(m, victims, contracted, workers)
	edgeDelta, touched := g.applyDeletes(m, ops[:workers])
	g.nAlive -= nodes
	g.nEdges += edgeDelta - cleared
	touched = append(touched, g.applyTransfers(ops[workers]))
	return nodes, touched
}

// contractBatchSerial is the single-worker path of ContractBatchMetered: the
// same edge deletions, transfers and label merges, applied inline in
// emission order. Inline application is sound because every write of a
// contraction round lands in a survivor's adjacency, so the victims'
// adjacency read by later iterations is exactly what the collect step
// would have seen.
func (g *Graph) contractBatchSerial(victims []NodeID, rep []NodeID, sc *BatchScratch) (int, [][]NodeID) {
	if sc == nil {
		sc = &BatchScratch{}
	}
	contracted := func(v NodeID) bool {
		r := rep[v]
		return r != None && r != v
	}
	t := sc.t[:0]
	last := None
	note := func(v NodeID) {
		if v != last {
			t = append(t, v)
			last = v
		}
	}
	for _, v := range victims {
		if !g.alive[v] || !contracted(v) {
			continue
		}
		r := rep[v]
		g.eachIn(v, func(h int32, p NodeID, w float64) {
			if contracted(p) {
				return
			}
			g.retire(h)
			g.st[p].outDeg--
			g.accountOut(p, w, 0)
			g.nEdges--
			note(p)
		})
		g.eachOut(v, func(h int32, u NodeID, w float64) {
			g.retire(h)
			if contracted(u) {
				// u dies this round; the edge vanishes with it.
				return
			}
			g.st[u].inDeg--
			g.accountIn(v, u, w, 0)
			note(u)
			if u == r {
				// Transferring (v, r) to r would create a self loop; R3
				// excludes it.
				return
			}
			g.mergeInto(r, u, w)
			note(r)
			note(u)
		})
	}
	nodes := g.killSerial(victims)
	return nodes, sc.touchedSet(t)
}
