package graph

// Class is the node classification of Section V-A of the paper. The four
// classes partition all nodes except the query endpoints (and, in the
// distributed setting, the boundary nodes), which are Excluded.
type Class uint8

const (
	// ClassExcluded marks nodes in the exclusion set (the paper's ⊥ label):
	// the query endpoints s and t, and in the distributed setting the
	// boundary nodes of a partition. No reduction rule applies to them.
	ClassExcluded Class = iota

	// C1 — irrelevant: the node misses incoming edges, outgoing edges or
	// both, so it cannot take part in any control chain. Removed by R1.
	C1

	// C2 — uncontrollable: the incoming labels sum to at most 0.5, so the
	// node can be controlled neither directly nor indirectly. Removed by R2.
	C2

	// C3 — directly controlled: one predecessor owns strictly more than half
	// of the node. Contracted into that predecessor by R3.
	C3

	// C4 — indirectly controllable: the incoming labels sum to more than 0.5
	// but no single label exceeds 0.5. Cannot be removed.
	C4
)

// String returns the paper's name for the class.
func (c Class) String() string {
	switch c {
	case ClassExcluded:
		return "⊥"
	case C1:
		return "C1"
	case C2:
		return "C2"
	case C3:
		return "C3"
	case C4:
		return "C4"
	}
	return "C?"
}

// ClassOf classifies node v per Section V-A. excluded reports whether v is in
// the exclusion set; excluded nodes are labeled ClassExcluded regardless of
// topology.
//
// The classes are computed exactly as defined:
//
//	C1 = out_v = ∅ ∨ in_v = ∅
//	C2 = Σ in-labels ≤ 0.5            (minus C1)
//	C3 = ∃ predecessor with label > 0.5 (minus C1)
//	C4 = Σ in-labels > 0.5 ∧ no single label > 0.5 (minus C1, C3)
//
// All four predicates read the cached per-node aggregates, so classification
// is O(1) regardless of degree.
func (g *Graph) ClassOf(v NodeID, excluded bool) Class {
	if excluded {
		return ClassExcluded
	}
	if !g.Alive(v) {
		return C1
	}
	s := &g.st[v]
	if s.outDeg == 0 || s.inDeg == 0 {
		return C1
	}
	switch {
	case !ExceedsControl(s.inSum):
		return C2
	case s.inBig > 0:
		return C3
	default:
		return C4
	}
}
