// Package partition implements the distributed-graph model of Section VII-A:
// a partitioning Π = (P, Gp) of an ownership graph into site-local
// partitions P_i = (V_i ∪ V_i^virt, E_i ∪ E_i^cross, L_i) plus the partition
// graph Gp of cross edges, with the derived boundary sets (virtual nodes and
// in-nodes) that the distributed algorithm must never reduce away.
package partition

import (
	"fmt"
	"maps"

	"ccp/internal/graph"
)

// Partition is one site's share of the distributed graph. Node ids are
// global: Local uses the same id space as the original graph, which lets the
// coordinator merge partial answers without translation.
type Partition struct {
	// ID is the partition index in its Partitioning.
	ID int
	// Local holds the member nodes, the virtual nodes, the edges induced by
	// the members and the outgoing cross edges.
	Local *graph.Graph
	// Members is V_i: the companies stored at this site.
	Members graph.NodeSet
	// Virtual is V_i^virt: foreign companies that members hold stakes in,
	// present only as edge endpoints.
	Virtual graph.NodeSet
	// InNodes is V_i^in: members owned (in part) from other partitions.
	// Their local in-edge knowledge is incomplete.
	InNodes graph.NodeSet
	// CrossIn counts, per in-node, how many foreign cross edges point at
	// it, so that updates can maintain InNodes incrementally.
	CrossIn map[graph.NodeID]int
	// CrossOut counts this partition's outgoing cross edges.
	CrossOut int
}

// AddCrossIn records one more foreign cross edge into member v, adding v to
// the in-nodes on first reference.
func (p *Partition) AddCrossIn(v graph.NodeID) {
	if p.CrossIn == nil {
		p.CrossIn = make(map[graph.NodeID]int)
	}
	p.CrossIn[v]++
	p.InNodes.Add(v)
}

// DropCrossIn removes one foreign cross-edge reference from v, removing v
// from the in-nodes when none remain. It reports whether a reference
// existed.
func (p *Partition) DropCrossIn(v graph.NodeID) bool {
	c, ok := p.CrossIn[v]
	if !ok {
		return false
	}
	if c <= 1 {
		delete(p.CrossIn, v)
		delete(p.InNodes, v)
	} else {
		p.CrossIn[v] = c - 1
	}
	return true
}

// StakeResult reports what ApplyStake did to the partition.
type StakeResult struct {
	// Stored is true iff this partition holds the owner — the update's home.
	Stored bool
	// EdgeCreated / EdgeRemoved report whether the physical edge appeared or
	// disappeared (a merge into an existing stake creates nothing).
	EdgeCreated, EdgeRemoved bool
	// Cross reports that the stake crosses partitions.
	Cross bool
	// Changed reports that some observable state actually moved. A stored
	// update can be a no-op — divesting nothing, or a merge whose clamped or
	// rounded label equals the old one — and then nothing downstream (epoch,
	// snapshots, caches, WAL) needs to move either.
	Changed bool
}

// ApplyStake applies one stake update: owner takes (remove=false) the
// fraction w of owned, merging with any existing stake, or divests the stake
// entirely (remove=true). Only the partition holding the owner does
// anything; every other partition returns a zero StakeResult.
//
// This is the single mutation path shared by live site updates and durable
// WAL replay, so a replayed record reproduces exactly the state the live
// update produced.
func (p *Partition) ApplyStake(owner, owned graph.NodeID, w float64, remove bool) (StakeResult, error) {
	var res StakeResult
	if !p.Members.Has(owner) {
		return res, nil
	}
	res.Cross = !p.Members.Has(owned)
	if remove {
		if !p.Local.RemoveEdge(owner, owned) {
			return res, nil // nothing to divest
		}
		res.Stored, res.EdgeRemoved, res.Changed = true, true, true
		if res.Cross {
			p.CrossOut--
		}
		return res, nil
	}
	old, existed := p.Local.Label(owner, owned)
	if res.Cross {
		// The owned company lives elsewhere; ensure its virtual stub.
		p.Local.Revive(owned)
		p.Virtual.Add(owned)
	} else if !p.Local.Alive(owned) {
		return res, fmt.Errorf("partition %d: owned company %d unknown", p.ID, owned)
	}
	if err := p.Local.MergeEdge(owner, owned, w); err != nil {
		return res, fmt.Errorf("partition %d applying stake: %w", p.ID, err)
	}
	res.Stored = true
	res.EdgeCreated = !existed
	nw, _ := p.Local.Label(owner, owned)
	res.Changed = !existed || nw != old
	if res.Cross && !existed {
		p.CrossOut++
	}
	return res, nil
}

// AdjustCrossIn folds delta new (+1) or removed (-1) foreign cross edges
// into v's in-node bookkeeping, if v is a member. acted reports whether the
// adjustment applied; changed reports whether the in-node *set* moved —
// only membership changes affect snapshots and caches, a pure reference
// count tick does not.
func (p *Partition) AdjustCrossIn(v graph.NodeID, delta int) (acted, changed bool) {
	if !p.Members.Has(v) {
		return false, false
	}
	switch {
	case delta > 0:
		changed = !p.InNodes.Has(v)
		p.AddCrossIn(v)
		return true, changed
	case delta < 0:
		if !p.DropCrossIn(v) {
			return false, false
		}
		return true, !p.InNodes.Has(v)
	default:
		return false, false
	}
}

// Snapshot returns a consistent image of the partition that stays valid
// while the live partition keeps mutating: the graph is a clone (it shares
// the immutable base adjacency, see graph.Graph.Clone), the sets and
// counters are copied outright. Checkpoint builds serialize the image off
// the update path.
func (p *Partition) Snapshot() *Partition {
	c := &Partition{
		ID:       p.ID,
		Local:    p.Local.Clone(),
		Members:  graph.NewNodeSet(),
		Virtual:  graph.NewNodeSet(),
		InNodes:  graph.NewNodeSet(),
		CrossIn:  maps.Clone(p.CrossIn),
		CrossOut: p.CrossOut,
	}
	c.Members.AddAll(p.Members)
	c.Virtual.AddAll(p.Virtual)
	c.InNodes.AddAll(p.InNodes)
	return c
}

// Boundary returns V_i^in ∪ V_i^virt — the nodes a partial evaluation must
// keep (the exclusion set of Algorithm 2, minus the query endpoints).
func (p *Partition) Boundary() graph.NodeSet {
	b := graph.NewNodeSet()
	b.AddAll(p.InNodes)
	b.AddAll(p.Virtual)
	return b
}

// Partitioning is Π: the set of partitions plus the node-to-site mapping m.
type Partitioning struct {
	Parts []*Partition
	// Assign maps every node id to the partition storing it (-1 for dead
	// ids).
	Assign []int
}

// Locate returns the partition id storing v, or -1.
func (pi *Partitioning) Locate(v graph.NodeID) int {
	if v < 0 || int(v) >= len(pi.Assign) {
		return -1
	}
	return pi.Assign[v]
}

// CrossEdge is an edge of the partition graph Gp.
type CrossEdge struct {
	Edge graph.Edge
	// FromPart / ToPart are the partitions storing the endpoints.
	FromPart, ToPart int
}

// PartitionGraph returns Gp = (Vp, Ep): all cross edges with their head and
// tail partitions. Vp is implied by the edges (virtual and in-nodes).
func (pi *Partitioning) PartitionGraph() []CrossEdge {
	var out []CrossEdge
	for _, p := range pi.Parts {
		for v := range p.Members {
			p.Local.EachOut(v, func(u graph.NodeID, w float64) {
				tp := pi.Locate(u)
				if tp != p.ID {
					out = append(out, CrossEdge{
						Edge:     graph.Edge{From: v, To: u, Weight: w},
						FromPart: p.ID,
						ToPart:   tp,
					})
				}
			})
		}
	}
	return out
}

// Merge reassembles the whole graph from the partitions (each edge lives in
// exactly one partition: the one storing its source). It is the inverse of
// Split and is used by tests and by a centralized fallback.
func (pi *Partitioning) Merge() *graph.Graph {
	var b graphParts
	for _, p := range pi.Parts {
		for v := range p.Members {
			b.node(v)
		}
	}
	for _, p := range pi.Parts {
		for v := range p.Members {
			p.Local.EachOut(v, func(u graph.NodeID, w float64) {
				b.node(u)
				b.edges = append(b.edges, graph.Edge{From: v, To: u, Weight: w})
			})
		}
	}
	g, err := b.build()
	if err != nil {
		// Each edge is stored exactly once; duplicates mean a corrupted
		// partitioning.
		panic(fmt.Sprintf("partition: merge conflict: %v", err))
	}
	return g
}

// graphParts gathers the nodes and edges of a graph whose id space is the
// largest id it references, for one bulk graph.Build.
type graphParts struct {
	nodes []graph.NodeID
	edges []graph.Edge
	cap   int
}

func (b *graphParts) node(v graph.NodeID) {
	b.nodes = append(b.nodes, v)
	b.cap = max(b.cap, int(v)+1)
}

func (b *graphParts) build() (*graph.Graph, error) {
	return graph.Build(b.cap, b.nodes, b.edges)
}

// Split partitions g according to assign, which maps every live node to a
// partition in [0, k). Dead ids may carry any value. Each partition's local
// graph is built in bulk.
func Split(g *graph.Graph, assign []int, k int) (*Partitioning, error) {
	if len(assign) != g.Cap() {
		return nil, fmt.Errorf("partition: assign has %d entries for id space %d", len(assign), g.Cap())
	}
	if k <= 0 {
		return nil, fmt.Errorf("partition: need at least one partition")
	}
	pi := &Partitioning{Assign: make([]int, g.Cap())}
	for i := range pi.Assign {
		pi.Assign[i] = -1
	}
	locals := make([]graphParts, k)
	for i := 0; i < k; i++ {
		pi.Parts = append(pi.Parts, &Partition{
			ID:      i,
			Members: graph.NewNodeSet(),
			Virtual: graph.NewNodeSet(),
			InNodes: graph.NewNodeSet(),
		})
	}
	var err error
	g.EachNode(func(v graph.NodeID) {
		a := assign[v]
		if a < 0 || a >= k {
			if err == nil {
				err = fmt.Errorf("partition: node %d assigned to %d, want [0,%d)", v, a, k)
			}
			return
		}
		pi.Assign[v] = a
		pi.Parts[a].Members.Add(v)
		locals[a].node(v)
	})
	if err != nil {
		return nil, err
	}
	g.EachNode(func(v graph.NodeID) {
		src := pi.Parts[pi.Assign[v]]
		local := &locals[src.ID]
		g.EachOut(v, func(u graph.NodeID, w float64) {
			local.edges = append(local.edges, graph.Edge{From: v, To: u, Weight: w})
			au := pi.Assign[u]
			if au == src.ID {
				return
			}
			// Cross edge: stored at the source partition with u virtual,
			// and u becomes an in-node of its home partition.
			local.node(u)
			src.Virtual.Add(u)
			src.CrossOut++
			pi.Parts[au].AddCrossIn(u)
		})
	})
	for i, p := range pi.Parts {
		if p.Local, err = locals[i].build(); err != nil {
			return nil, err
		}
	}
	return pi, nil
}

// ByHash assigns node v to partition v mod k — a locality-free partitioner
// that maximizes cross edges, useful as a stress test.
func ByHash(g *graph.Graph, k int) (*Partitioning, error) {
	assign := make([]int, g.Cap())
	for i := range assign {
		assign[i] = i % k
	}
	return Split(g, assign, k)
}

// ByContiguous assigns equal contiguous id ranges to the k partitions — the
// "one country per site" layout of the EU graphs, whose generators number
// countries contiguously.
func ByContiguous(g *graph.Graph, k int) (*Partitioning, error) {
	n := g.Cap()
	per := (n + k - 1) / k
	assign := make([]int, n)
	for i := range assign {
		a := i / per
		if a >= k {
			a = k - 1
		}
		assign[i] = a
	}
	return Split(g, assign, k)
}
