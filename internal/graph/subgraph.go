package graph

import "slices"

// NodeSet is a set of node ids.
type NodeSet map[NodeID]struct{}

// NewNodeSet builds a set from ids.
func NewNodeSet(ids ...NodeID) NodeSet {
	s := make(NodeSet, len(ids))
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add inserts id into the set.
func (s NodeSet) Add(id NodeID) { s[id] = struct{}{} }

// Has reports membership of id.
func (s NodeSet) Has(id NodeID) bool {
	_, ok := s[id]
	return ok
}

// AddAll inserts every element of t into s.
func (s NodeSet) AddAll(t NodeSet) {
	for id := range t {
		s.Add(id)
	}
}

// Induced returns the subgraph of g induced by keep: the nodes of keep that
// are live in g and every edge of g with both endpoints in keep. Node ids are
// preserved; the result has the same id capacity as g.
func (g *Graph) Induced(keep NodeSet) *Graph {
	var nodes []NodeID
	for v := range keep {
		if g.Alive(v) {
			nodes = append(nodes, v)
		}
	}
	slices.Sort(nodes)
	var edges []Edge
	for _, v := range nodes {
		g.eachOut(v, func(_ int32, u NodeID, w float64) {
			if keep.Has(u) {
				edges = append(edges, Edge{v, u, w})
			}
		})
	}
	sub, err := Build(len(g.alive), nodes, edges)
	if err != nil {
		panic("graph: inducing a valid graph: " + err.Error())
	}
	return sub
}

// Merge adds every live node and edge of other into g, extending the id
// space if needed. Edges already present in g keep their label: merging
// reduced partitions never double-counts an ownership relation, because
// every original edge lives in exactly one partition and reduction only
// moves labels between edges of the same partition. Merged edges land in
// g's overlay.
func (g *Graph) Merge(other *Graph) {
	other.EachNode(func(v NodeID) { g.Revive(v) })
	other.EachNode(func(v NodeID) {
		other.eachOut(v, func(_ int32, u NodeID, w float64) {
			if _, _, exists := g.find(v, u); !exists {
				g.setEdge(v, u, w)
			}
		})
	})
}

// CompactCopy returns a copy of g where live nodes are renumbered densely
// 0..NumNodes-1, together with the mapping old id -> new id. It is used when
// shipping heavily reduced graphs whose id space would otherwise be sparse.
func (g *Graph) CompactCopy() (*Graph, map[NodeID]NodeID) {
	remap := make(map[NodeID]NodeID, g.nAlive)
	next := NodeID(0)
	g.EachNode(func(v NodeID) {
		remap[v] = next
		next++
	})
	edges := make([]Edge, 0, g.nEdges)
	g.EachNode(func(v NodeID) {
		g.eachOut(v, func(_ int32, u NodeID, w float64) {
			edges = append(edges, Edge{remap[v], remap[u], w})
		})
	})
	c := New(int(next))
	if err := c.load(len(edges), func(i int) Edge { return edges[i] }); err != nil {
		panic("graph: renumbering a valid graph: " + err.Error())
	}
	return c, remap
}
