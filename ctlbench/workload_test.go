package main

import (
	"testing"

	"ccp/internal/control"
	"ccp/internal/dist"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// Every input a run feeds the program is a pure function of the seed.
func TestWorkloadsDependOnlyOnTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full-size workloads")
	}
	for _, name := range []string{"xborder", "churn"} {
		a, err := newWorkload(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newWorkload(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: two generations from one seed differ", name)
		}
		c, err := newWorkload(name, 12)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 11 and 12 generate the same inputs", name)
		}
	}
}

// Every xborder pair merges at the coordinator: neither endpoint site
// decides it, so both ship live partials.
func TestMergePathPairsMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full-size workload")
	}
	w, err := newWorkload("xborder", 5)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := partition.ByContiguous(w.g, numSites)
	if err != nil {
		t.Fatal(err)
	}
	sites := make([]*dist.Site, len(pi.Parts))
	for i, p := range pi.Parts {
		sites[i] = dist.NewSite(p, 1)
	}
	if len(w.pool) == 0 || len(w.pool) > mergePoolSize {
		t.Fatalf("pool holds %d pairs, want 1 to %d", len(w.pool), mergePoolSize)
	}
	for _, p := range w.pool {
		edges, err := probeLive(sites, pi, p.q)
		if err != nil {
			t.Fatal(err)
		}
		if edges < 0 {
			t.Errorf("%v is decided by an endpoint site", p.q)
		}
	}
}

// The churn sequence adds and removes fresh controlling stakes, some
// across partitions, and returns the graph to its start state.
func TestChurnStepsAreFreshControllingAndReturn(t *testing.T) {
	w, err := newWorkload("churn", 5)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := partition.ByContiguous(w.g, numSites)
	if err != nil {
		t.Fatal(err)
	}
	start := w.g.Clone()
	cross := 0
	for i, st := range w.steps {
		up := st.up
		if i%2 == 0 {
			if up.Remove || !graph.ExceedsControl(up.Weight) || w.g.HasEdge(up.Owner, up.Owned) {
				t.Fatalf("step %d: %+v is not a fresh controlling stake", i, up)
			}
			if pi.Locate(up.Owner) != pi.Locate(up.Owned) {
				cross++
			}
		} else if prev := w.steps[i-1].up; !up.Remove || up.Owner != prev.Owner || up.Owned != prev.Owned {
			t.Fatalf("step %d: %+v does not remove the stake step %d added", i, up, i-1)
		}
		if st.queries[0].q.S != up.Owner {
			t.Fatalf("step %d: first query %v does not ask about the updated owner", i, st.queries[0].q)
		}
		if err := applyStake(w.g, up); err != nil {
			t.Fatal(err)
		}
		for _, p := range st.queries {
			if got := control.CBE(w.g, p.q); got != p.want {
				t.Fatalf("step %d: oracle answer for %v recorded as %v, is %v", i, p.q, p.want, got)
			}
		}
	}
	if cross == 0 {
		t.Error("no stake crosses partitions")
	}
	if !graph.Equal(start, w.g, 0) {
		t.Error("the sequence does not return the graph to its start state")
	}
}
