package graph

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// csr is an immutable compressed-sparse-row adjacency over ids [0, n): the
// base that every copy of a graph shares. Out-edges are stored per source in
// increasing target order; the out slot index is the edge's identity, and
// each in-list entry names the out slot of its edge, so a label lives in
// one place. A nil *csr is the empty base.
type csr struct {
	outOff []int32 // n+1 entries; out-edges of v are slots [outOff[v], outOff[v+1])
	outDst []NodeID
	outW   []float64
	inOff  []int32 // n+1 entries, like outOff
	inSrc  []NodeID
	inEdge []int32 // out slot of each in-list entry

	// shared is set once a second graph (a clone or a Frozen view) refers
	// to the base; until then its owner may rebuild it in place.
	shared atomic.Bool
}

// has reports whether v has an adjacency row in the base.
func (b *csr) has(v NodeID) bool { return b != nil && int(v)+1 < len(b.outOff) }

// numEdges returns the number of base slots.
func (b *csr) numEdges() int {
	if b == nil {
		return 0
	}
	return len(b.outDst)
}

// share marks the base as referenced by more than one graph.
func (b *csr) share() {
	if b != nil && !b.shared.Load() {
		b.shared.Store(true)
	}
}

// owned reports whether exactly one graph refers to the base.
func (b *csr) owned() bool { return b != nil && !b.shared.Load() }

// truncate empties an owned base, keeping its arrays for the next build.
func (b *csr) truncate() {
	b.outOff, b.inOff = b.outOff[:0], b.inOff[:0]
	b.outDst, b.outW = b.outDst[:0], b.outW[:0]
	b.inSrc, b.inEdge = b.inSrc[:0], b.inEdge[:0]
}

// build fills b in bulk with the m edges at(0..m-1) over ids [0, n),
// reusing b's arrays. at is called three times per edge. Endpoints must be
// in range; an input with two edges between the same ordered pair is
// rejected. Input sorted by (From, To), as every encoder writes it, needs
// no sorting and costs O(m) plus one pass of prefix sums over the ids.
func (b *csr) build(n, m int, at func(int) Edge) error {
	b.outOff = resize(b.outOff, n+1)
	b.inOff = resize(b.inOff, n+1)
	clear(b.outOff)
	clear(b.inOff)
	b.outDst = resize(b.outDst, m)
	b.outW = resize(b.outW, m)
	b.inSrc = resize(b.inSrc, m)
	b.inEdge = resize(b.inEdge, m)

	// Counting sort by source and by target: count, prefix-sum to row
	// starts, fill using the starts as cursors (which leaves each holding
	// the next row's start), then shift back.
	sorted := true
	for i := 0; i < m; i++ {
		e := at(i)
		b.outOff[e.From+1]++
		b.inOff[e.To+1]++
		if i > 0 && sorted {
			p := at(i - 1)
			sorted = p.From < e.From || (p.From == e.From && p.To < e.To)
		}
	}
	for v := 1; v <= n; v++ {
		b.outOff[v] += b.outOff[v-1]
		b.inOff[v] += b.inOff[v-1]
	}
	for i := 0; i < m; i++ {
		e := at(i)
		p := b.outOff[e.From]
		b.outOff[e.From]++
		b.outDst[p], b.outW[p] = e.To, e.Weight
	}
	copy(b.outOff[1:], b.outOff[:n])
	b.outOff[0] = 0

	if sorted {
		// Slot i holds edge i; rows are sorted and duplicate-free.
		for i := 0; i < m; i++ {
			e := at(i)
			p := b.inOff[e.To]
			b.inOff[e.To]++
			b.inSrc[p], b.inEdge[p] = e.From, int32(i)
		}
	} else {
		for v := 0; v < n; v++ {
			lo, hi := b.outOff[v], b.outOff[v+1]
			row := b.outDst[lo:hi]
			sort.Sort(byTarget{row, b.outW[lo:hi]})
			for j := 1; j < len(row); j++ {
				if row[j] == row[j-1] {
					return fmt.Errorf("graph: parallel edge (%d,%d)", v, row[j])
				}
			}
		}
		// Visiting the slots in source order keeps every in-list in
		// increasing source order, as in the sorted case.
		for v := 0; v < n; v++ {
			for e := b.outOff[v]; e < b.outOff[v+1]; e++ {
				u := b.outDst[e]
				p := b.inOff[u]
				b.inOff[u]++
				b.inSrc[p], b.inEdge[p] = NodeID(v), e
			}
		}
	}
	copy(b.inOff[1:], b.inOff[:n])
	b.inOff[0] = 0
	return nil
}

// byTarget sorts one out-row by target, carrying the labels along.
type byTarget struct {
	dst []NodeID
	w   []float64
}

func (s byTarget) Len() int           { return len(s.dst) }
func (s byTarget) Less(i, j int) bool { return s.dst[i] < s.dst[j] }
func (s byTarget) Swap(i, j int) {
	s.dst[i], s.dst[j] = s.dst[j], s.dst[i]
	s.w[i], s.w[j] = s.w[j], s.w[i]
}

// load gives g, whose live nodes are set and which has no edges, the m
// edges at(0..m-1) as a bulk-built base — rebuilding g's own base in place
// when no other graph shares it — and derives every cached aggregate from
// it. The edges are validated as AddEdge would.
func (g *Graph) load(m int, at func(int) Edge) error {
	for i := 0; i < m; i++ {
		e := at(i)
		if err := g.checkEndpoints(e.From, e.To, e.Weight); err != nil {
			return err
		}
	}
	b := g.base
	if !b.owned() {
		b = &csr{}
	}
	if err := b.build(len(g.alive), m, at); err != nil {
		return err
	}
	g.base = b
	g.nEdges = m
	for i, ok := range g.alive {
		if !ok {
			continue
		}
		s := &g.st[i]
		s.outDeg = b.outOff[i+1] - b.outOff[i]
		s.inDeg = b.inOff[i+1] - b.inOff[i]
		for e := b.outOff[i]; e < b.outOff[i+1]; e++ {
			if ExceedsControl(b.outW[e]) {
				s.outBig++
			}
		}
		for j := b.inOff[i]; j < b.inOff[i+1]; j++ {
			w := b.outW[b.inEdge[j]]
			s.inSum += w
			if ExceedsControl(w) {
				s.inBig++
				s.bigIn = b.inSrc[j]
			}
		}
	}
	return nil
}

// edgeBase builds a fresh base holding exactly g's live edges.
func (g *Graph) edgeBase() *csr {
	es := g.Edges()
	b := &csr{}
	if err := b.build(len(g.alive), len(es), func(i int) Edge { return es[i] }); err != nil {
		panic("graph: rebuilding the base of a valid graph: " + err.Error())
	}
	return b
}

// Build returns a graph with id capacity n whose live nodes are nodes and
// whose edges are edges, built in bulk as one base rather than edge by
// edge. Edges must join live nodes; self loops, parallel edges and labels
// outside (0, 1] are rejected.
func Build(n int, nodes []NodeID, edges []Edge) (*Graph, error) {
	g := newShell(n)
	for _, v := range nodes {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: node %d outside the id space %d", v, n)
		}
		if !g.alive[v] {
			g.alive[v] = true
			g.nAlive++
		}
	}
	if err := g.load(len(edges), func(i int) Edge { return edges[i] }); err != nil {
		return nil, err
	}
	return g, nil
}

// Frozen is an immutable compressed-sparse-row view of a Graph, for serving
// many read-only control queries: successor and predecessor lists are
// contiguous arrays. A graph with nothing in its overlay is frozen for the
// price of copying its live flags, since the view shares the graph's base.
type Frozen struct {
	b     *csr
	alive []bool
	nodes int
}

// Freeze builds an immutable snapshot of g. Later mutations of g do not
// affect the snapshot.
func Freeze(g *Graph) *Frozen {
	b := g.base
	if b == nil || len(g.ov) != 0 || len(g.gone) != 0 {
		b = g.edgeBase()
	}
	b.share()
	return &Frozen{b: b, alive: append([]bool(nil), g.alive...), nodes: g.nAlive}
}

// Cap returns the id-space size.
func (f *Frozen) Cap() int { return len(f.alive) }

// NumNodes returns the number of live nodes.
func (f *Frozen) NumNodes() int { return f.nodes }

// NumEdges returns the number of edges.
func (f *Frozen) NumEdges() int { return f.b.numEdges() }

// Alive reports whether v is a live node.
func (f *Frozen) Alive(v NodeID) bool {
	return v >= 0 && int(v) < len(f.alive) && f.alive[v]
}

// EachOut calls fn for every outgoing edge of v.
func (f *Frozen) EachOut(v NodeID, fn func(u NodeID, w float64)) {
	if !f.Alive(v) || !f.b.has(v) {
		return
	}
	for e := f.b.outOff[v]; e < f.b.outOff[v+1]; e++ {
		fn(f.b.outDst[e], f.b.outW[e])
	}
}

// EachIn calls fn for every incoming edge of v.
func (f *Frozen) EachIn(v NodeID, fn func(u NodeID, w float64)) {
	if !f.Alive(v) || !f.b.has(v) {
		return
	}
	for j := f.b.inOff[v]; j < f.b.inOff[v+1]; j++ {
		fn(f.b.inSrc[j], f.b.outW[f.b.inEdge[j]])
	}
}

// OutDegree returns the number of outgoing edges of v.
func (f *Frozen) OutDegree(v NodeID) int {
	if !f.Alive(v) || !f.b.has(v) {
		return 0
	}
	return int(f.b.outOff[v+1] - f.b.outOff[v])
}

// InSum returns the sum of incoming labels of v.
func (f *Frozen) InSum(v NodeID) float64 {
	var s float64
	f.EachIn(v, func(u NodeID, w float64) { s += w })
	return s
}

// Ownership is the read-only view the closure solvers need; both *Graph and
// *Frozen satisfy it.
type Ownership interface {
	Alive(NodeID) bool
	EachOut(NodeID, func(NodeID, float64))
}

var (
	_ Ownership = (*Graph)(nil)
	_ Ownership = (*Frozen)(nil)
)
