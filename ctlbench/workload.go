package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"ccp/internal/control"
	"ccp/internal/dist"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// The graph is the EU generator at the throughput experiment's size.
const (
	countries       = 4
	nodesPerCountry = 8000
	interconnect    = 0.01
	avgOutDegree    = 3
	numSites        = 4
)

// Pool and sequence sizes. They are part of the workload definition: a
// change to any of them changes what every later run measures.
const (
	mergePoolSize = 24   // merged pairs collected before the cost cut, as mergePathQueries does
	mergeProbes   = 256  // cross-border candidates drawn for them
	orderLen      = 4096 // length of the query order the loops cycle through
	churnPairs    = 128  // add/remove pairs in the churn sequence
	churnK        = 4    // queries after each churn update
)

// pair is one control query with the oracle's answer on the graph state it
// is asked in.
type pair struct {
	q    control.Query
	want bool
}

// step is one stake update followed by the queries asked after it. The
// first query is the fresh one: its source is the updated owner.
type step struct {
	up      dist.StakeUpdate
	queries []pair
}

// workload is everything one run feeds the program, a pure function of the
// seed and the workload name.
type workload struct {
	// g is the oracle's reference copy of the global graph, at the start
	// state. Every step sequence returns the graph to it.
	g *graph.Graph
	// pool holds the measured read queries; order is the sequence of pool
	// indices the load loops cycle through.
	pool  []pair
	order []int32
	// steps is churn's update sequence.
	steps []step
	// sel describes how the merge-path pairs were selected.
	sel selection
}

// selection records the outcome of mergePathPairs for the provenance line.
type selection struct {
	Probed      int `json:"probed"`       // candidates probed
	Merged      int `json:"merged"`       // of them, pairs neither endpoint site decides
	MedianEdges int `json:"median_edges"` // median live-partial edges of the merged pairs
	Kept        int `json:"kept"`         // merged pairs within twice the median
	OneSite     int `json:"one_site"`     // kept pairs whose endpoints share a site
}

// newWorkload generates the inputs of one workload from the seed.
func newWorkload(name string, seed int64) (*workload, error) {
	if name != "xborder" && name != "churn" {
		return nil, fmt.Errorf("unknown workload %q (want xborder or churn)", name)
	}
	eu := gen.EU(gen.EUConfig{
		Countries:        countries,
		NodesPerCountry:  nodesPerCountry,
		InterconnectRate: interconnect,
		AvgOutDegree:     avgOutDegree,
		Seed:             seed,
	})
	g := eu.G
	pi, err := partition.ByContiguous(g, numSites)
	if err != nil {
		return nil, err
	}
	w := &workload{g: g}
	rng := rand.New(rand.NewSource(seed))
	merge, sel, err := mergePathPairs(rng, g, pi)
	if err != nil {
		return nil, err
	}
	w.sel = sel
	w.pool = w.answer(merge)
	if name == "churn" {
		w.steps = churnSteps(rng, g, pi, merge, churnPairs, churnK)
	}
	w.order = make([]int32, orderLen)
	for i := range w.order {
		w.order[i] = int32(rng.Intn(len(w.pool)))
	}
	// The oracle walks the step sequence on the reference graph, which
	// ends where it started.
	for i := range w.steps {
		st := &w.steps[i]
		if err := applyStake(g, st.up); err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
		for j := range st.queries {
			st.queries[j].want = control.CBE(g, st.queries[j].q)
		}
	}
	return w, nil
}

func (w *workload) answer(qs []control.Query) []pair {
	out := make([]pair, len(qs))
	for i, q := range qs {
		out[i] = pair{q: q, want: control.CBE(w.g, q)}
	}
	return out
}

// applyStake mirrors one stake update on the reference graph.
func applyStake(g *graph.Graph, up dist.StakeUpdate) error {
	if up.Remove {
		if !g.RemoveEdge(up.Owner, up.Owned) {
			return fmt.Errorf("stake (%d,%d) to remove is missing", up.Owner, up.Owned)
		}
		return nil
	}
	return g.AddEdge(up.Owner, up.Owned, up.Weight)
}

// crossBorderCandidates draws pairs likely to need the coordinator merge,
// as the throughput experiment does: s holds a controlling stake in a
// company at either end of a cross-partition edge (or holds a controlling
// cross stake itself), and t is an in-node.
func crossBorderCandidates(rng *rand.Rand, g *graph.Graph, pi *partition.Partitioning, n int) []control.Query {
	borderOwner := make(map[graph.NodeID]bool)
	for _, ce := range pi.PartitionGraph() {
		if graph.ExceedsControl(ce.Edge.Weight) {
			borderOwner[ce.Edge.From] = true
		}
		for _, u := range []graph.NodeID{ce.Edge.From, ce.Edge.To} {
			g.EachIn(u, func(w graph.NodeID, wt float64) {
				if graph.ExceedsControl(wt) {
					borderOwner[w] = true
				}
			})
		}
	}
	owners := sortedKeys(borderOwner)
	targets := inNodes(pi)
	qs := make([]control.Query, n)
	for i := range qs {
		qs[i] = control.Query{S: owners[rng.Intn(len(owners))], T: targets[rng.Intn(len(targets))]}
	}
	return qs
}

// mergePathPairs selects pairs as the throughput experiment's
// mergePathQueries does: it probes cross-border candidates in order until
// mergePoolSize of them merge at the coordinator (neither endpoint site
// decides), then keeps those whose cost is at most twice the median. The
// probes run each endpoint site's own Evaluate on a private in-process copy
// of the partitions, and the cost is the edge count of the live partials
// shipped to the coordinator rather than probe latency, which does not
// repeat from run to run. Single-worker sites make the outcome a function
// of the graph alone.
func mergePathPairs(rng *rand.Rand, g *graph.Graph, pi *partition.Partitioning) ([]control.Query, selection, error) {
	sites := make([]*dist.Site, len(pi.Parts))
	for i, p := range pi.Parts {
		sites[i] = dist.NewSite(p, 1)
	}
	type probed struct {
		q     control.Query
		edges int
	}
	cands := crossBorderCandidates(rng, g, pi, mergeProbes)
	// Probe in batches, two at a time; the pool takes merged pairs in
	// candidate order, so it does not depend on which probe finished first.
	const batch = 16
	var pool []probed
	var sel selection
	for lo := 0; lo < len(cands) && len(pool) < mergePoolSize; lo += batch {
		qs := cands[lo:min(lo+batch, len(cands))]
		edges := make([]int, len(qs)) // -1: a site decided the pair
		errs := make([]error, len(qs))
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(qs); i += 2 {
					edges[i], errs[i] = probeLive(sites, pi, qs[i])
				}
			}(w)
		}
		wg.Wait()
		sel.Probed += len(qs)
		for i, q := range qs {
			if errs[i] != nil {
				return nil, sel, errs[i]
			}
			if edges[i] >= 0 && len(pool) < mergePoolSize {
				pool = append(pool, probed{q, edges[i]})
			}
		}
	}
	if len(pool) == 0 {
		return nil, sel, fmt.Errorf("no merge-path pair among %d candidates", len(cands))
	}
	costs := make([]int, len(pool))
	for i, p := range pool {
		costs[i] = p.edges
	}
	sort.Ints(costs)
	sel.Merged, sel.MedianEdges = len(pool), costs[len(costs)/2]
	var kept []control.Query
	for _, p := range pool {
		if p.edges <= 2*sel.MedianEdges {
			kept = append(kept, p.q)
			if len(endpointSites(pi, p.q)) == 1 {
				sel.OneSite++
			}
		}
	}
	sel.Kept = len(kept)
	return kept, sel, nil
}

// probeLive evaluates q at its endpoint sites and returns the edges of
// their live partials, or -1 when a site decides q.
func probeLive(sites []*dist.Site, pi *partition.Partitioning, q control.Query) (int, error) {
	edges := 0
	for _, si := range endpointSites(pi, q) {
		pa, err := sites[si].Evaluate(context.Background(), q, dist.EvalOptions{UseCache: true})
		if err != nil {
			return 0, err
		}
		if pa.Ans != control.Unknown {
			return -1, nil
		}
		edges += pa.Reduced.NumEdges()
		pa.Release()
	}
	return edges, nil
}

// churnSteps builds n add/remove pairs of fresh controlling stakes, taken
// by companies that already control one: each stake is added, k queries
// run, then it is removed and k more run, so the
// sequence returns the graph to its start state. Every fourth pair crosses
// partitions: a cross stake also moves the owned company's in-node
// bookkeeping, so its updates and fresh queries cost more, and keeping them
// a minority keeps the medians inside one mode. The first query after
// every update asks about the updated owner; the others come from pool.
func churnSteps(rng *rand.Rand, g *graph.Graph, pi *partition.Partitioning, pool []control.Query, n, k int) []step {
	targets := inNodes(pi)
	// Owners already hold a controlling stake, so the fresh query after the
	// removal costs a live evaluation like the one after the addition:
	// with nothing controlled, s's site would decide it at once (T1).
	owners := make([][]graph.NodeID, len(pi.Parts))
	members := make([][]graph.NodeID, len(pi.Parts))
	for i, p := range pi.Parts {
		members[i] = sortedKeys(p.Members)
		for _, v := range members[i] {
			if g.HasControllingOut(v) {
				owners[i] = append(owners[i], v)
			}
		}
	}
	queries := func(owner graph.NodeID) []pair {
		qs := make([]pair, k)
		// The fresh query's target lives in another country, so it costs
		// two live site evaluations.
		t := targets[rng.Intn(len(targets))]
		for pi.Locate(t) == pi.Locate(owner) {
			t = targets[rng.Intn(len(targets))]
		}
		qs[0].q = control.Query{S: owner, T: t}
		for j := 1; j < k; j++ {
			qs[j].q = pool[rng.Intn(len(pool))]
		}
		return qs
	}
	steps := make([]step, 0, 2*n)
	for i := 0; i < n; i++ {
		from := rng.Intn(len(pi.Parts))
		to := from
		if i%4 == 3 {
			to = (from + 1 + rng.Intn(len(pi.Parts)-1)) % len(pi.Parts)
		}
		owner := owners[from][rng.Intn(len(owners[from]))]
		var owned graph.NodeID
		for {
			owned = members[to][rng.Intn(len(members[to]))]
			if owned != owner && !g.HasEdge(owner, owned) && g.InSum(owned) <= 0.4 {
				break
			}
		}
		// Controlling, and the owned company's shares still sum below one.
		wt := math.Round((0.51+0.08*rng.Float64())*1e6) / 1e6
		steps = append(steps,
			step{up: dist.StakeUpdate{Owner: owner, Owned: owned, Weight: wt}, queries: queries(owner)},
			step{up: dist.StakeUpdate{Owner: owner, Owned: owned, Remove: true}, queries: queries(owner)})
	}
	return steps
}

// endpointSites lists the sites storing q's endpoints, each once.
func endpointSites(pi *partition.Partitioning, q control.Query) []int {
	a, b := pi.Locate(q.S), pi.Locate(q.T)
	if a == b {
		return []int{a}
	}
	return []int{a, b}
}

func inNodes(pi *partition.Partitioning) []graph.NodeID {
	var out []graph.NodeID
	for _, p := range pi.Parts {
		for v := range p.InNodes {
			out = append(out, v)
		}
	}
	sortIDs(out)
	return out
}

func sortedKeys[M ~map[graph.NodeID]V, V any](m M) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []graph.NodeID) { sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] }) }

// digest fingerprints every generated input: the graph, the query pool and
// order, and the step sequence with all expected answers. Two generations
// from one seed must agree on it.
func (w *workload) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	pq := func(p pair) {
		put(uint64(p.q.S))
		put(uint64(p.q.T))
		if p.want {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(w.g.Cap()))
	w.g.EachNode(func(v graph.NodeID) {
		out := w.g.Successors(v)
		sortIDs(out)
		for _, u := range out {
			wt, _ := w.g.Label(v, u)
			put(uint64(v))
			put(uint64(u))
			put(math.Float64bits(wt))
		}
	})
	for _, p := range w.pool {
		pq(p)
	}
	for _, i := range w.order {
		put(uint64(i))
	}
	for _, st := range w.steps {
		put(uint64(st.up.Owner))
		put(uint64(st.up.Owned))
		put(math.Float64bits(st.up.Weight))
		for _, p := range st.queries {
			pq(p)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
