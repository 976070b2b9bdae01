// Package graph implements the business ownership graph of the company
// control problem: a directed graph whose nodes are companies and whose
// edge labels are equity fractions in (0, 1].
//
// The representation is optimized for the reduction algorithms of the
// paper and for the copy-then-reduce pattern of partial evaluation. The
// adjacency lives in an immutable compressed-sparse-row base shared by
// every copy of a graph; each copy keeps a small mutable overlay of what
// differs from the base (retired base edges, added edges, merged labels).
// Copying a graph therefore copies per-node scalars and the overlay, never
// the base edges. Nodes are identified by dense int32 ids so that parallel
// workers can own disjoint id shards.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a company inside a Graph. Ids are dense: a graph with n
// nodes uses ids 0..n-1. Ids are stable across node removal; removed ids are
// never reused.
type NodeID int32

// None is the null node id.
const None NodeID = -1

// ControlThreshold is the ownership fraction strictly above which a company
// (or a controlled group) controls another company.
const ControlThreshold = 0.5

// sumSlack absorbs float64 rounding when validating that the incoming labels
// of a node sum to at most 1.
const sumSlack = 1e-9

// Overlay compaction: once the overlay records plus the retired base edges
// of a graph reach compactMin and a 1/compactDiv share of its base, the next
// single-edge mutation folds them into a new base. Bulk reductions never
// compact; their graphs are per-query copies.
const (
	compactMin = 256
	compactDiv = 4
)

// Graph is a mutable ownership graph. The zero value is an empty graph.
//
// Invariants maintained by the mutators:
//   - no self loops,
//   - no parallel edges (AddEdge rejects duplicates, MergeEdge sums labels),
//   - every label is in (0, 1],
//   - every edge with a dead endpoint is retired.
//
// The incoming-label sum of a node may transiently exceed 1 during R3 label
// transfer; CheckOwnership verifies the input-data invariant sum <= 1.
//
// Every mutator additionally maintains per-node cached aggregates — the
// degrees, the incoming-label sum, the number of incoming and outgoing
// labels exceeding the control threshold, and (when unique) the predecessor
// holding the controlling stake — so that ClassOf, InSum, DirectController
// and the termination checks are O(1) lookups instead of adjacency scans.
// The cached in-sum is updated incrementally; float drift stays orders of
// magnitude below ControlEps because every delta is exact to one rounding of
// the running sum.
//
// Storage: base is an immutable CSR adjacency that copies share. An edge is
// either a base slot (retired in this copy when gone[slot] is set) or an
// overlay record in ov (retired when its label is 0). Overlay records are
// threaded into per-node singly linked out- and in-lists whose heads live in
// the node's state.
//
// A Graph is not safe for concurrent mutation; the par package routes
// concurrent mutations so that each node's state is written by exactly one
// goroutine. Concurrent reads — including Clone — are safe.
type Graph struct {
	base   *csr
	alive  []bool
	st     []nodeState
	nAlive int
	nEdges int

	gone []bool   // base slots retired in this copy; empty when none is
	ov   []ovEdge // edges added since the base was built
	debt int      // overlay records + retired base slots, the compaction trigger
}

// nodeState is a node's cached aggregates and overlay list heads. The zero
// value is the state of a node without edges.
type nodeState struct {
	inSum  float64 // Σ incoming labels
	inBig  int32   // #incoming labels exceeding the control threshold
	outBig int32   // #outgoing labels exceeding the control threshold
	bigIn  NodeID  // a predecessor with a controlling stake; meaningful while inBig > 0
	outDeg int32
	inDeg  int32
	ovOut  int32 // 1 + first overlay record leaving the node; 0 ends the list
	ovIn   int32 // 1 + first overlay record entering the node; 0 ends the list
}

// ovEdge is one overlay edge record. A label of 0 marks it retired.
type ovEdge struct {
	from, to NodeID
	w        float64
	nextOut  int32 // 1 + next record in from's out-list; 0 ends it
	nextIn   int32 // 1 + next record in to's in-list; 0 ends it
}

// An edge handle names one live edge of a copy: a base slot (>= 0) or an
// overlay record k (encoded as -(k+1)).

// New returns a graph with n live nodes (ids 0..n-1) and no edges.
func New(n int) *Graph {
	g := newShell(n)
	for i := range g.alive {
		g.alive[i] = true
	}
	g.nAlive = n
	return g
}

// newShell allocates a graph with the given id capacity and every node dead.
func newShell(capacity int) *Graph {
	return &Graph{alive: make([]bool, capacity), st: make([]nodeState, capacity)}
}

// accountIn folds a label change of edge (u, v) — old to w, either of which
// may be 0 for insertion/deletion — into v's cached in-aggregates.
func (g *Graph) accountIn(u, v NodeID, old, w float64) {
	s := &g.st[v]
	s.inSum += w - old
	ob, nb := ExceedsControl(old), ExceedsControl(w)
	switch {
	case nb && !ob:
		s.inBig++
		s.bigIn = u
	case ob && !nb:
		s.inBig--
		if s.inBig > 0 && s.bigIn == u {
			g.refreshBigIn(v)
		}
	}
}

// refreshBigIn rescans v's in-adjacency for a controlling predecessor. It
// only runs when several controlling stakes coexist (in-sum transiently
// above 1) and the tracked one disappears.
func (g *Graph) refreshBigIn(v NodeID) {
	best := None
	g.eachIn(v, func(_ int32, u NodeID, w float64) {
		if ExceedsControl(w) && (best == None || u < best) {
			best = u
		}
	})
	g.st[v].bigIn = best
}

// accountOut folds a label change of an edge leaving u into u's cached
// out-aggregates.
func (g *Graph) accountOut(u NodeID, old, w float64) {
	ob, nb := ExceedsControl(old), ExceedsControl(w)
	if nb && !ob {
		g.st[u].outBig++
	} else if ob && !nb {
		g.st[u].outBig--
	}
}

// eachOut calls fn(h, u, w) for every live out-edge (v, u) of v, h being the
// edge's handle. It does not check that v itself is live. fn may retire the
// edge it is given and may append overlay records for other nodes.
func (g *Graph) eachOut(v NodeID, fn func(h int32, u NodeID, w float64)) {
	if b := g.base; b.has(v) {
		for e := b.outOff[v]; e < b.outOff[v+1]; e++ {
			if len(g.gone) == 0 || !g.gone[e] {
				fn(e, b.outDst[e], b.outW[e])
			}
		}
	}
	for k := g.st[v].ovOut; k != 0; {
		r := g.ov[k-1]
		if r.w != 0 {
			fn(-k, r.to, r.w)
		}
		k = r.nextOut
	}
}

// eachIn is eachOut for the in-edges (p, v) of v.
func (g *Graph) eachIn(v NodeID, fn func(h int32, p NodeID, w float64)) {
	if b := g.base; b.has(v) {
		for j := b.inOff[v]; j < b.inOff[v+1]; j++ {
			if e := b.inEdge[j]; len(g.gone) == 0 || !g.gone[e] {
				fn(e, b.inSrc[j], b.outW[e])
			}
		}
	}
	for k := g.st[v].ovIn; k != 0; {
		r := g.ov[k-1]
		if r.w != 0 {
			fn(-k, r.from, r.w)
		}
		k = r.nextIn
	}
}

// find returns the handle and label of the live edge (u, v). Both ids must
// be inside the id space. The base side is a binary search; the overlay side
// walks u's out-list and v's in-list in lockstep, so it costs at most twice
// the shorter of the two.
func (g *Graph) find(u, v NodeID) (int32, float64, bool) {
	if b := g.base; b.has(u) {
		lo, hi := b.outOff[u], b.outOff[u+1]
		end := hi
		for lo < hi {
			mid := int32(uint32(lo+hi) >> 1)
			if b.outDst[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < end && b.outDst[lo] == v && (len(g.gone) == 0 || !g.gone[lo]) {
			return lo, b.outW[lo], true
		}
	}
	a, c := g.st[u].ovOut, g.st[v].ovIn
	for a != 0 && c != 0 {
		r := &g.ov[a-1]
		if r.to == v && r.w != 0 {
			return -a, r.w, true
		}
		s := &g.ov[c-1]
		if s.from == u && s.w != 0 {
			return -c, s.w, true
		}
		a, c = r.nextOut, s.nextIn
	}
	return 0, 0, false
}

// retire removes the edge with handle h from this copy's view. It touches
// no aggregates.
func (g *Graph) retire(h int32) {
	if h < 0 {
		g.ov[-h-1].w = 0
		return
	}
	g.reserveGone()
	g.gone[h] = true
	g.debt++
}

// reserveGone materializes the retired-slot flags of the base, so parallel
// workers can then retire distinct slots without allocating.
func (g *Graph) reserveGone() {
	if len(g.gone) == 0 && g.base != nil {
		g.gone = resize(g.gone, len(g.base.outDst))
	}
}

// link appends the overlay record (u, v, w) and threads it into u's out-list
// and v's in-list. It touches no aggregates.
func (g *Graph) link(u, v NodeID, w float64) {
	k := int32(len(g.ov)) + 1
	g.ov = append(g.ov, ovEdge{from: u, to: v, w: w, nextOut: g.st[u].ovOut, nextIn: g.st[v].ovIn})
	g.st[u].ovOut = k
	g.st[v].ovIn = k
	g.debt++
}

// setEdge inserts the new edge (u, v) with label w.
func (g *Graph) setEdge(u, v NodeID, w float64) {
	g.link(u, v, w)
	g.st[u].outDeg++
	g.st[v].inDeg++
	g.accountOut(u, 0, w)
	g.accountIn(u, v, 0, w)
	g.nEdges++
}

// relabel changes the label of the live edge h = (u, v) from old to nw. A
// base edge is retired and re-added as an overlay record.
func (g *Graph) relabel(h int32, u, v NodeID, old, nw float64) {
	if nw == old {
		return
	}
	if h < 0 {
		g.ov[-h-1].w = nw
	} else {
		g.retire(h)
		g.link(u, v, nw)
	}
	g.accountOut(u, old, nw)
	g.accountIn(u, v, old, nw)
}

// mergeInto adds w to the label of edge (u, v), inserting the edge if it is
// missing; the merged label is clamped to 1. It reports whether the edge was
// created.
func (g *Graph) mergeInto(u, v NodeID, w float64) bool {
	if h, old, ok := g.find(u, v); ok {
		g.relabel(h, u, v, old, clampLabel(old+w))
		return false
	}
	g.setEdge(u, v, w)
	return true
}

// maybeCompact folds the overlay into a new base once it outweighs the
// base by the fixed ratio.
func (g *Graph) maybeCompact() {
	if g.debt >= compactMin && g.debt >= g.base.numEdges()/compactDiv {
		g.compact()
	}
}

// compact rebuilds the base from the live edges and empties the overlay.
// The aggregates are unchanged: the edge set is the same.
func (g *Graph) compact() {
	g.base = g.edgeBase()
	g.gone = g.gone[:0]
	g.ov = g.ov[:0]
	for i := range g.st {
		g.st[i].ovOut, g.st[i].ovIn = 0, 0
	}
	g.debt = 0
}

// Cap returns the id-space size of the graph: all node ids are < Cap.
// Removed nodes still count toward Cap.
func (g *Graph) Cap() int { return len(g.alive) }

// NumNodes returns the number of live nodes.
func (g *Graph) NumNodes() int { return g.nAlive }

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int { return g.nEdges }

// Alive reports whether v is a live node of the graph.
func (g *Graph) Alive(v NodeID) bool {
	return v >= 0 && int(v) < len(g.alive) && g.alive[v]
}

// AddNode appends one live node and returns its id.
func (g *Graph) AddNode() NodeID {
	id := NodeID(len(g.alive))
	g.alive = append(g.alive, true)
	g.st = append(g.st, nodeState{})
	g.nAlive++
	return id
}

// AddNodes appends n live nodes and returns the id of the first.
func (g *Graph) AddNodes(n int) NodeID {
	first := NodeID(len(g.alive))
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	return first
}

// Revive marks id as live, extending the id space if necessary. It is used
// when assembling a graph from serialized node lists that preserve global
// ids. A revived node has no edges: removal retired all of them.
func (g *Graph) Revive(v NodeID) {
	for int(v) >= len(g.alive) {
		g.alive = append(g.alive, false)
		g.st = append(g.st, nodeState{})
	}
	if !g.alive[v] {
		g.alive[v] = true
		g.nAlive++
	}
}

// AddEdge inserts the edge (u, v) with ownership fraction w.
// It returns an error if either endpoint is dead, the edge would be a self
// loop or a parallel edge, or w is outside (0, 1].
func (g *Graph) AddEdge(u, v NodeID, w float64) error {
	if err := g.checkEndpoints(u, v, w); err != nil {
		return err
	}
	if _, _, dup := g.find(u, v); dup {
		return fmt.Errorf("graph: parallel edge (%d,%d)", u, v)
	}
	g.setEdge(u, v, w)
	g.maybeCompact()
	return nil
}

// MergeEdge inserts the edge (u, v) with fraction w, summing labels if the
// edge already exists (the parallel-edge merge of reduction rule R3).
// The merged label is clamped to 1 to absorb rounding.
func (g *Graph) MergeEdge(u, v NodeID, w float64) error {
	if err := g.checkEndpoints(u, v, w); err != nil {
		return err
	}
	g.mergeInto(u, v, w)
	g.maybeCompact()
	return nil
}

func (g *Graph) checkEndpoints(u, v NodeID, w float64) error {
	if !g.Alive(u) || !g.Alive(v) {
		return fmt.Errorf("graph: edge (%d,%d) has a dead endpoint", u, v)
	}
	if u == v {
		return fmt.Errorf("graph: self loop on %d", u)
	}
	if w <= 0 || w > 1 || math.IsNaN(w) {
		return fmt.Errorf("graph: label %g of edge (%d,%d) outside (0,1]", w, u, v)
	}
	return nil
}

// Label returns the ownership fraction of edge (u, v) and whether the edge
// exists.
func (g *Graph) Label(u, v NodeID) (float64, bool) {
	if !g.Alive(u) || !g.Alive(v) {
		return 0, false
	}
	_, w, ok := g.find(u, v)
	return w, ok
}

// HasEdge reports whether the edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.Label(u, v)
	return ok
}

// RemoveEdge deletes edge (u, v) if present and reports whether it existed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	if !g.Alive(u) || !g.Alive(v) {
		return false
	}
	h, w, ok := g.find(u, v)
	if !ok {
		return false
	}
	g.retire(h)
	g.st[u].outDeg--
	g.st[v].inDeg--
	g.accountOut(u, w, 0)
	g.accountIn(u, v, w, 0)
	g.nEdges--
	g.maybeCompact()
	return true
}

// RemoveNode deletes v and all its incident edges (the action of rules R1
// and R2). It reports whether v was live.
func (g *Graph) RemoveNode(v NodeID) bool {
	if !g.Alive(v) {
		return false
	}
	g.eachIn(v, func(h int32, p NodeID, w float64) {
		g.retire(h)
		g.st[p].outDeg--
		g.accountOut(p, w, 0)
		g.nEdges--
	})
	g.eachOut(v, func(h int32, u NodeID, w float64) {
		g.retire(h)
		g.st[u].inDeg--
		g.accountIn(v, u, w, 0)
		g.nEdges--
	})
	g.alive[v] = false
	g.st[v] = nodeState{}
	g.nAlive--
	g.maybeCompact()
	return true
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v NodeID) int {
	if !g.Alive(v) {
		return 0
	}
	return int(g.st[v].outDeg)
}

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v NodeID) int {
	if !g.Alive(v) {
		return 0
	}
	return int(g.st[v].inDeg)
}

// InSum returns the sum of the labels of the incoming edges of v. It is an
// O(1) read of the cached aggregate.
func (g *Graph) InSum(v NodeID) float64 {
	if !g.Alive(v) {
		return 0
	}
	return g.st[v].inSum
}

// HasControllingOut reports in O(1) whether v holds a controlling stake
// (label exceeding the control threshold) in any successor.
func (g *Graph) HasControllingOut(v NodeID) bool {
	return g.Alive(v) && g.st[v].outBig > 0
}

// MaxInLabel returns the largest incoming label of v and the predecessor
// holding it, or (None, 0) if v has no incoming edges.
func (g *Graph) MaxInLabel(v NodeID) (NodeID, float64) {
	if !g.Alive(v) {
		return None, 0
	}
	best, bw := None, 0.0
	g.eachIn(v, func(_ int32, u NodeID, w float64) {
		if w > bw || (w == bw && (best == None || u < best)) {
			best, bw = u, w
		}
	})
	return best, bw
}

// DirectController returns the unique predecessor owning strictly more than
// half of v, or None. At most one such predecessor can exist because the
// incoming labels of a node sum to at most 1, which makes this an O(1)
// lookup of the cached controlling predecessor. If the invariant is broken
// and several controlling stakes coexist, it falls back to the MaxInLabel
// scan to preserve the historical tie-break (largest label, then lowest id).
func (g *Graph) DirectController(v NodeID) NodeID {
	if !g.Alive(v) {
		return None
	}
	switch g.st[v].inBig {
	case 0:
		return None
	case 1:
		return g.st[v].bigIn
	}
	u, w := g.MaxInLabel(v)
	if u != None && ExceedsControl(w) {
		return u
	}
	return None
}

// EachOut calls fn for every outgoing edge (v, u) with label w.
// fn must not mutate the graph. Base edges come in increasing target order,
// followed by the edges added since the base was built.
func (g *Graph) EachOut(v NodeID, fn func(u NodeID, w float64)) {
	if !g.Alive(v) {
		return
	}
	g.eachOut(v, func(_ int32, u NodeID, w float64) { fn(u, w) })
}

// EachIn calls fn for every incoming edge (u, v) with label w.
// fn must not mutate the graph; iteration order is unspecified.
func (g *Graph) EachIn(v NodeID, fn func(u NodeID, w float64)) {
	if !g.Alive(v) {
		return
	}
	g.eachIn(v, func(_ int32, u NodeID, w float64) { fn(u, w) })
}

// EachNode calls fn for every live node.
func (g *Graph) EachNode(fn func(v NodeID)) {
	for i, ok := range g.alive {
		if ok {
			fn(NodeID(i))
		}
	}
}

// Nodes returns the ids of all live nodes in increasing order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, g.nAlive)
	g.EachNode(func(v NodeID) { ids = append(ids, v) })
	return ids
}

// Successors returns the successor ids of v in unspecified order.
func (g *Graph) Successors(v NodeID) []NodeID {
	if !g.Alive(v) {
		return nil
	}
	succ := make([]NodeID, 0, g.st[v].outDeg)
	g.EachOut(v, func(u NodeID, _ float64) { succ = append(succ, u) })
	return succ
}

// Predecessors returns the predecessor ids of v in unspecified order.
func (g *Graph) Predecessors(v NodeID) []NodeID {
	if !g.Alive(v) {
		return nil
	}
	pred := make([]NodeID, 0, g.st[v].inDeg)
	g.EachIn(v, func(u NodeID, _ float64) { pred = append(pred, u) })
	return pred
}

// Clone returns an independent copy of the graph. The copy shares the
// immutable base adjacency and copies only the per-node state and the
// overlay, so its cost is O(Cap + overlay), independent of the edge count.
func (g *Graph) Clone() *Graph { return g.CloneInto(new(Graph)) }

// CloneInto copies g into dst, reusing dst's per-node and overlay buffers,
// and returns the graph written: dst, or a fresh graph when dst is nil or g
// itself. A pooled destination stops allocating once its buffers have
// grown to g's size, whatever was done to it in between.
func (g *Graph) CloneInto(dst *Graph) *Graph {
	if dst == nil || dst == g {
		dst = new(Graph)
	}
	g.base.share()
	dst.base = g.base
	dst.alive = append(dst.alive[:0], g.alive...)
	dst.st = append(dst.st[:0], g.st...)
	dst.gone = append(dst.gone[:0], g.gone...)
	dst.ov = append(dst.ov[:0], g.ov...)
	dst.nAlive, dst.nEdges, dst.debt = g.nAlive, g.nEdges, g.debt
	return dst
}

// Reset empties the graph — every node dead, no edges, aggregates zeroed —
// while keeping its id-space length and its buffers, so a pooled scratch
// graph can be rebuilt without allocating.
func (g *Graph) Reset() {
	if g.base.owned() {
		g.base.truncate()
	} else {
		g.base = nil
	}
	for i, ok := range g.alive {
		if ok {
			// Dead nodes' state is already zero.
			g.st[i] = nodeState{}
		}
	}
	clear(g.alive)
	g.gone = g.gone[:0]
	g.ov = g.ov[:0]
	g.nAlive, g.nEdges, g.debt = 0, 0, 0
}

// sizeTo resizes the per-node slices to n entries, reusing backing arrays
// when capacity allows; ids it adds are dead and bare.
func (g *Graph) sizeTo(n int) {
	g.alive = resize(g.alive, n)
	g.st = resize(g.st, n)
}

// resize returns s with length n, reusing its array when capacity allows.
// Entries past the old length are zero, never stale values of an earlier,
// longer use.
func resize[E any](s []E, n int) []E {
	if cap(s) >= n {
		old := len(s)
		s = s[:n]
		if n > old {
			clear(s[old:])
		}
		return s
	}
	ns := make([]E, n)
	copy(ns, s)
	return ns
}

func clampLabel(w float64) float64 {
	if w > 1 {
		return 1
	}
	return w
}

// CheckOwnership verifies the ownership-graph invariant: for every node the
// incoming labels sum to at most 1 (within rounding slack). It returns the
// first violating node, or None. The sum is recomputed from the adjacency
// rather than read from the cache, since this is a validation pass.
func (g *Graph) CheckOwnership() (NodeID, error) {
	for i, ok := range g.alive {
		if !ok {
			continue
		}
		v := NodeID(i)
		var s float64
		g.eachIn(v, func(_ int32, _ NodeID, w float64) { s += w })
		if s > 1+sumSlack {
			return v, fmt.Errorf("graph: node %d is owned %g > 1", v, s)
		}
	}
	return None, nil
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes=%d edges=%d cap=%d}", g.nAlive, g.nEdges, len(g.alive))
}
