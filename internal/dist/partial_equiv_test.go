package dist

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ccp/internal/control"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// referencePartial reduces a plain clone of the partition's local graph the
// way a site's live evaluation of q should: X = boundary ∪ {s, t} and the
// site's termination trust.
func referencePartial(p *partition.Partition, q control.Query, workers int, force bool) control.Result {
	x := p.Boundary()
	x.Add(q.S)
	x.Add(q.T)
	trust := control.TerminationTrust{
		T1: p.Members.Has(q.S),
		T2: p.Members.Has(q.T) && !p.InNodes.Has(q.T),
	}
	res, err := control.ParallelReduction(context.Background(), p.Local.Clone(), q, x,
		control.Options{Workers: workers, Trust: trust, DisableTermination: force})
	if err != nil {
		panic(err)
	}
	return res
}

// sameGraph reports whether a and b have the same id capacity, live nodes,
// edges and labels, bit for bit.
func sameGraph(a, b *graph.Graph) bool {
	var ba, bb bytes.Buffer
	if err := a.WriteBinary(&ba); err != nil {
		panic(err)
	}
	if err := b.WriteBinary(&bb); err != nil {
		panic(err)
	}
	return bytes.Equal(ba.Bytes(), bb.Bytes())
}

// TestSitePartialMatchesReduction checks, over 200 random partitioned
// graphs and queries, that every site's live evaluation returns exactly
// what control.ParallelReduction computes on a plain clone of the
// partition: the same answer, the same statistics and the same reduced
// graph — node ids, edges and float labels — bit for bit.
func TestSitePartialMatchesReduction(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(120)
		g := gen.Random(n, rng.Intn(4*n), rng.Int63())
		k := 1 + rng.Intn(4)
		split := partition.ByContiguous
		if seed%2 == 1 {
			split = partition.ByHash
		}
		pi, err := split(g, k)
		if err != nil {
			t.Fatal(err)
		}
		workers := 1 + rng.Intn(3)
		q := control.Query{S: graph.NodeID(rng.Intn(n)), T: graph.NodeID(rng.Intn(n))}
		force := rng.Intn(2) == 0
		for _, p := range pi.Parts {
			s := NewSite(p, workers)
			for round := 0; round < 2; round++ { // the second round reuses pooled scratch
				pa, err := s.Evaluate(ctx, q, EvalOptions{ForcePartial: force})
				if err != nil {
					t.Fatal(err)
				}
				want := referencePartial(p, q, workers, force)
				wantAns := want.Ans
				if force {
					wantAns = control.Unknown
				}
				if pa.Ans != wantAns || pa.Stats != want.Stats {
					t.Fatalf("seed %d site %d %v: site (%v, %+v), reduction (%v, %+v)",
						seed, p.ID, q, pa.Ans, pa.Stats, wantAns, want.Stats)
				}
				if (pa.Reduced == nil) != (wantAns != control.Unknown) {
					t.Fatalf("seed %d site %d %v: partial present=%v with answer %v",
						seed, p.ID, q, pa.Reduced != nil, pa.Ans)
				}
				if pa.Reduced != nil && !sameGraph(pa.Reduced, want.Reduced) {
					t.Fatalf("seed %d site %d %v: partial differs from the reduction of a clone", seed, p.ID, q)
				}
				pa.Release()
			}
		}
	}
}

// TestEvaluationPinnedToEpoch runs live evaluations concurrently with stake
// updates at the same site: every evaluation must return exactly the
// partial of the epoch it reports, however many updates land while it
// reduces, and once the updates stop the next evaluation must see them all.
// Expected partials come from a shadow partition that shares no storage
// with the site's.
func TestEvaluationPinnedToEpoch(t *testing.T) {
	const workers = 2
	s, q := liveSiteFixture(t, 600, 5)
	p := s.part
	var img bytes.Buffer
	if err := p.WriteBinary(&img); err != nil {
		t.Fatal(err)
	}
	shadow, err := partition.ReadPartition(&img)
	if err != nil {
		t.Fatal(err)
	}
	s.workers = workers

	// An update stream over member pairs: new stakes, merges into existing
	// ones and divestments.
	rng := rand.New(rand.NewSource(9))
	members := p.Local.Nodes()
	var ups []StakeUpdate
	for len(ups) < 60 {
		u := members[rng.Intn(len(members))]
		v := members[rng.Intn(len(members))]
		if u == v || !p.Members.Has(u) || !p.Members.Has(v) {
			continue
		}
		ups = append(ups, StakeUpdate{Owner: u, Owned: v, Weight: 0.2 + 0.5*rng.Float64(), Remove: rng.Intn(4) == 0})
	}

	type expect struct {
		stats control.Stats
		g     *graph.Graph
	}
	want := map[uint64]expect{}
	record := func(epoch uint64) {
		res := referencePartial(shadow, q, workers, true)
		want[epoch] = expect{res.Stats, res.Reduced}
	}
	epoch := s.Epoch()
	record(epoch)
	for _, up := range ups {
		res, err := shadow.ApplyStake(up.Owner, up.Owned, up.Weight, up.Remove)
		if err != nil {
			t.Fatal(err)
		}
		if res.Changed {
			epoch++
			record(epoch)
		}
	}
	if len(want) < 20 {
		t.Fatalf("only %d distinct epochs — test is vacuous", len(want))
	}

	check := func(pa *PartialAnswer) {
		t.Helper()
		w, ok := want[pa.Epoch]
		if !ok {
			t.Errorf("evaluation reported unknown epoch %d", pa.Epoch)
			return
		}
		if pa.Stats != w.stats || !sameGraph(pa.Reduced, w.g) {
			t.Errorf("evaluation at epoch %d returned another epoch's partial", pa.Epoch)
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	var evals atomic.Int64
	done := make(chan struct{})
	seen := make([]map[uint64]bool, 2)
	for r := range seen {
		seen[r] = map[uint64]bool{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				pa, err := s.Evaluate(ctx, q, EvalOptions{ForcePartial: true})
				if err != nil {
					t.Error(err)
					return
				}
				check(pa)
				seen[r][pa.Epoch] = true
				pa.Release()
				evals.Add(1)
			}
		}(r)
	}
	// Each update lands while the readers keep evaluating: the writer waits
	// for two more finished evaluations before the next one.
	for _, up := range ups {
		if _, err := s.ApplyEdgeUpdate(up); err != nil {
			t.Fatal(err)
		}
		for target := evals.Load() + 2; evals.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(done)
	wg.Wait()
	if s.Epoch() != epoch {
		t.Fatalf("site epoch %d after the stream, shadow counted %d", s.Epoch(), epoch)
	}
	pa, err := s.Evaluate(ctx, q, EvalOptions{ForcePartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Epoch != epoch {
		t.Fatalf("evaluation after the stream at epoch %d, want %d", pa.Epoch, epoch)
	}
	check(pa)
	if n := len(seen[0]) + len(seen[1]); n < len(want) {
		t.Fatalf("readers saw %d epochs of %d — the updates did not interleave", n, len(want))
	}
}
