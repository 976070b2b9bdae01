package dist

import (
	"context"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// liveSiteFixture builds site 0 of an EU graph split into 4 contiguous
// partitions and a cross-border query whose source it stores. With
// ForcePartial the site copies its partition and reduces the copy with
// X = boundary ∪ {s, t} on every evaluation: the per-query work of an
// endpoint site on the merge path.
func liveSiteFixture(tb testing.TB, nodesPerCountry int, seed int64) (*Site, control.Query) {
	tb.Helper()
	g := gen.EU(gen.EUConfig{Countries: 4, NodesPerCountry: nodesPerCountry,
		InterconnectRate: 0.01, AvgOutDegree: 3, Seed: seed}).G
	pi, err := partition.ByContiguous(g, 4)
	if err != nil {
		tb.Fatal(err)
	}
	p := pi.Parts[0]
	q := control.Query{S: graph.None, T: graph.None}
	for v := graph.NodeID(0); int(v) < g.Cap() && q.S == graph.None; v++ {
		if p.Members.Has(v) && g.HasControllingOut(v) {
			q.S = v
		}
	}
	for v := graph.NodeID(g.Cap() - 1); v >= 0 && q.T == graph.None; v-- {
		if pi.Parts[1].InNodes.Has(v) {
			q.T = v
		}
	}
	if q.S == graph.None || q.T == graph.None {
		tb.Fatalf("no query endpoints in the fixture: %v", q)
	}
	return NewSite(p, 1), q
}

// BenchmarkSiteEvaluateLive measures one live ForcePartial evaluation at a
// site of the benchmark deployment's graph (EU, 4 × 8000 companies, seed
// 1): the snapshot copy of the partition plus its reduction, per query.
func BenchmarkSiteEvaluateLive(b *testing.B) {
	s, q := liveSiteFixture(b, 8000, 1)
	ctx := context.Background()
	opts := EvalOptions{ForcePartial: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, err := s.Evaluate(ctx, q, opts)
		if err != nil {
			b.Fatal(err)
		}
		pa.Release()
	}
}

// TestSiteEvaluateLiveAllocs bounds the allocations of a live evaluation
// that copies and reduces the partition on every run. A copy that allocated
// per node or per edge would cost thousands.
func TestSiteEvaluateLiveAllocs(t *testing.T) {
	s, q := liveSiteFixture(t, 2000, 1)
	ctx := context.Background()
	opts := EvalOptions{ForcePartial: true}
	run := func() {
		pa, err := s.Evaluate(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if pa.Reduced == nil || pa.Stats.Removed == 0 {
			t.Fatalf("evaluation did not reduce: %+v", pa.Stats)
		}
		pa.Release()
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 64 {
		t.Fatalf("live Evaluate allocated %.0f times per run, want <= 64", allocs)
	}
}

// BenchmarkSiteEvaluateDecided measures an evaluation the site decides
// locally (T3: s directly controls t). Site.Evaluate checks the termination
// conditions on the snapshot before copying it, so a decided query costs no
// copy at all.
func BenchmarkSiteEvaluateDecided(b *testing.B) {
	s, q := liveSiteFixture(b, 8000, 1)
	s.part.Local.EachOut(q.S, func(u graph.NodeID, w float64) {
		if graph.ExceedsControl(w) {
			q.T = u
		}
	})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, err := s.Evaluate(ctx, q, EvalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if pa.Ans != control.True {
			b.Fatalf("site answered %v, want a local T3 decision", pa.Ans)
		}
	}
}
