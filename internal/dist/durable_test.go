package dist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// durableSeed returns a deterministic seed function for one shard of a
// 2-way hash partitioning of a small random graph.
func durableSeed(seed int64, nodes, part int) func() (*partition.Partition, error) {
	return func() (*partition.Partition, error) {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(nodes)
		for i := 0; i < 2*nodes; i++ {
			u := graph.NodeID(rng.Intn(nodes))
			v := graph.NodeID(rng.Intn(nodes))
			if u == v {
				continue
			}
			g.MergeEdge(u, v, 0.05+0.3*rng.Float64())
		}
		pi, err := partition.ByHash(g, 2)
		if err != nil {
			return nil, err
		}
		return pi.Parts[part], nil
	}
}

// randomStake draws an update whose owner is a member of shard `part` of a
// 2-way hash partitioning over `nodes` ids.
func randomStake(rng *rand.Rand, nodes, part int) StakeUpdate {
	owner := graph.NodeID(rng.Intn(nodes/2)*2 + part)
	owned := graph.NodeID(rng.Intn(nodes))
	for owned == owner {
		owned = graph.NodeID(rng.Intn(nodes))
	}
	return StakeUpdate{
		Owner:  owner,
		Owned:  owned,
		Weight: 0.05 + 0.3*rng.Float64(),
		Remove: rng.Intn(6) == 0,
	}
}

func sameSiteState(t *testing.T, seedTag string, want, got *partition.Partition) {
	t.Helper()
	if !graph.Equal(want.Local, got.Local, 1e-12) {
		t.Fatalf("%s: recovered graph differs (%d/%d nodes/edges vs %d/%d)", seedTag,
			got.Local.NumNodes(), got.Local.NumEdges(), want.Local.NumNodes(), want.Local.NumEdges())
	}
	for _, s := range []struct {
		name      string
		want, got graph.NodeSet
	}{
		{"Members", want.Members, got.Members},
		{"Virtual", want.Virtual, got.Virtual},
		{"InNodes", want.InNodes, got.InNodes},
	} {
		if len(s.want) != len(s.got) {
			t.Fatalf("%s: %s differs: %d vs %d", seedTag, s.name, len(s.got), len(s.want))
		}
		for v := range s.want {
			if !s.got.Has(v) {
				t.Fatalf("%s: %s missing %d", seedTag, s.name, v)
			}
		}
	}
	for v, c := range want.CrossIn {
		if got.CrossIn[v] != c {
			t.Fatalf("%s: CrossIn[%d] = %d, want %d", seedTag, v, got.CrossIn[v], c)
		}
	}
	if len(want.CrossIn) != len(got.CrossIn) || want.CrossOut != got.CrossOut {
		t.Fatalf("%s: cross bookkeeping differs", seedTag)
	}
}

// TestDurableSiteRestartEquivalence kills a durable site mid-stream at a
// random point, recovers from disk, and requires the recovered partition to
// be bit-equal to an in-memory twin that applied the same updates — across
// many seeds, with and without an intervening checkpoint.
func TestDurableSiteRestartEquivalence(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 50
	}
	const nodes = 16
	for seed := 0; seed < seeds; seed++ {
		seedTag := fmt.Sprintf("seed %d", seed)
		dir := t.TempDir()
		seedFn := durableSeed(int64(seed), nodes, 0)
		s, err := OpenDurableSite(dir, seedFn, 1, store.Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: OpenDurableSite: %v", seedTag, err)
		}
		twin, err := seedFn()
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(int64(seed) * 31))
		n := 5 + rng.Intn(25)
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				v := graph.NodeID(rng.Intn(nodes/2) * 2)
				delta := 1
				if rng.Intn(3) == 0 {
					delta = -1
				}
				s.AdjustCrossIn(v, delta)
				twin.AdjustCrossIn(v, delta)
				continue
			}
			up := randomStake(rng, nodes, 0)
			if _, err := s.ApplyEdgeUpdate(up); err != nil {
				t.Fatalf("%s: ApplyEdgeUpdate: %v", seedTag, err)
			}
			if _, err := twin.ApplyStake(up.Owner, up.Owned, up.Weight, up.Remove); err != nil {
				t.Fatalf("%s: twin ApplyStake: %v", seedTag, err)
			}
			if i == n/2 && seed%3 == 0 {
				if err := s.store.Checkpoint(); err != nil {
					t.Fatalf("%s: Checkpoint: %v", seedTag, err)
				}
			}
		}
		preEpoch := s.Epoch()
		if err := s.store.Kill(); err != nil {
			t.Fatalf("%s: Kill: %v", seedTag, err)
		}

		r, err := OpenDurableSite(dir, seedFn, 1, store.Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: recovery: %v", seedTag, err)
		}
		if r.Epoch() != preEpoch {
			t.Fatalf("%s: recovered epoch %d, want pre-kill %d", seedTag, r.Epoch(), preEpoch)
		}
		sameSiteState(t, seedTag, twin, r.part)
		if err := r.CloseStore(); err != nil {
			t.Fatalf("%s: CloseStore: %v", seedTag, err)
		}
	}
}

// TestNoOpUpdateKeepsEpoch is the regression test for the epoch-churn bug:
// re-adding an identical edge, or divesting a stake that does not exist,
// must not move the epoch, drop the cache, or invalidate snapshots.
func TestNoOpUpdateKeepsEpoch(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			var s *Site
			if durable {
				var err error
				s, err = OpenDurableSite(t.TempDir(), durableSeed(3, 8, 0), 1, store.Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				defer s.CloseStore()
			} else {
				p, err := durableSeed(3, 8, 0)()
				if err != nil {
					t.Fatal(err)
				}
				s = NewSite(p, 1)
			}
			// Drive the stake to the clamp: labels merge additively and cap
			// at 1, so the third merge below is a true no-op.
			up := StakeUpdate{Owner: 0, Owned: 5, Weight: 0.8}
			res, err := s.ApplyEdgeUpdate(up)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stored || !res.Changed {
				t.Fatalf("first apply: %+v", res)
			}
			// Second merge: clamps to 1 (or already was 1 if the seed graph
			// had a heavy edge here — either way the label is now pinned).
			if _, err = s.ApplyEdgeUpdate(up); err != nil {
				t.Fatal(err)
			}
			epoch := s.Epoch()
			sn := s.snapshot()

			// Merging into an already-clamped label changes nothing.
			res, err = s.ApplyEdgeUpdate(up)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stored || res.Changed || res.Seq != 0 {
				t.Fatalf("no-op merge: %+v", res)
			}
			// Divesting a stake that was never there: also a no-op.
			res, err = s.ApplyEdgeUpdate(StakeUpdate{Owner: 0, Owned: 7, Remove: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stored || res.Changed {
				t.Fatalf("no-op divest: %+v", res)
			}
			if got := s.Epoch(); got != epoch {
				t.Fatalf("epoch moved %d -> %d on no-op updates", epoch, got)
			}
			if s.snapshot() != sn {
				t.Fatal("snapshot rebuilt after no-op updates")
			}

			// A real change still moves everything.
			res, err = s.ApplyEdgeUpdate(StakeUpdate{Owner: 0, Owned: 6, Weight: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Changed || s.Epoch() == epoch {
				t.Fatalf("effective update did not move the epoch: %+v", res)
			}
			if s.snapshot() == sn {
				t.Fatal("snapshot not rebuilt after effective update")
			}
		})
	}
}

// graphFingerprint summarizes a graph so two states can be compared
// cheaply: live node count, edge count, and the sum of all labels.
func graphFingerprint(g *graph.Graph) [3]float64 {
	var sum float64
	var edges int
	g.EachNode(func(v graph.NodeID) {
		g.EachOut(v, func(u graph.NodeID, w float64) {
			sum += w
			edges++
		})
	})
	return [3]float64{float64(g.NumNodes()), float64(edges), sum}
}

// TestSnapshotsNeverMixEpochs streams updates from one goroutine while many
// readers take snapshots: every snapshot's graph must exactly match the
// state its epoch number was assigned for — no torn reads, no mixed epochs.
// Run under -race this also proves that clones sharing one base adjacency
// never write it.
func TestSnapshotsNeverMixEpochs(t *testing.T) {
	s, err := OpenDurableSite(t.TempDir(), durableSeed(11, 16, 0), 2, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseStore()

	var mu sync.Mutex
	expected := map[uint64][3]float64{s.Epoch(): graphFingerprint(s.part.Local)}

	// The writer keeps streaming until every reader verified enough
	// snapshots, so the test self-paces instead of racing a fixed count.
	const readers, wantChecks = 4, 200
	var checks [readers]atomic.Int64
	allChecked := func() bool {
		for i := range checks {
			if checks[i].Load() < wantChecks {
				return false
			}
		}
		return true
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(99))
		for i := 0; !allChecked() && i < 500000; i++ {
			up := randomStake(rng, 16, 0)
			mu.Lock()
			res, err := s.ApplyEdgeUpdate(up)
			if err == nil && res.Changed {
				expected[res.Seq] = graphFingerprint(s.part.Local)
			}
			mu.Unlock()
			if err != nil {
				t.Errorf("ApplyEdgeUpdate: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					if checks[r].Load() == 0 {
						t.Error("reader never checked a snapshot")
					}
					return
				default:
				}
				sn := s.snapshot()
				got := graphFingerprint(sn.local)
				mu.Lock()
				want, ok := expected[sn.epoch]
				mu.Unlock()
				if !ok {
					// The writer has not published this epoch's fingerprint
					// yet (snapshot taken between apply and publish).
					continue
				}
				// Counts compare exactly; the label sum only within an
				// epsilon — map iteration order varies and float addition
				// is not associative.
				if got[0] != want[0] || got[1] != want[1] || math.Abs(got[2]-want[2]) > 1e-9 {
					t.Errorf("epoch %d: snapshot fingerprint %v, want %v (mixed-epoch read)", sn.epoch, got, want)
					return
				}
				checks[r].Add(1)
			}
		}(r)
	}
	<-done
	wg.Wait()
}

// TestCoordinatorRevalidatesAcrossRestart is the end-to-end payoff of
// epoch == durable sequence number: a coordinator that cached a site's
// partial answer before the site was killed revalidates it with a cheap
// NotModified after the site recovers — no partition is ever re-shipped.
func TestCoordinatorRevalidatesAcrossRestart(t *testing.T) {
	const nodes = 400
	mk := func() (*partition.Partition, error) {
		rng := rand.New(rand.NewSource(17))
		g := graph.New(nodes)
		for i := 0; i < 3*nodes; i++ {
			u := graph.NodeID(rng.Intn(nodes))
			v := graph.NodeID(rng.Intn(nodes))
			if u != v {
				g.MergeEdge(u, v, 0.05+0.25*rng.Float64())
			}
		}
		pi, err := partition.ByContiguous(g, 3)
		if err != nil {
			return nil, err
		}
		return pi.Parts[1], nil // the middle shard: cached for s/t queries below
	}
	full := func() []*partition.Partition {
		rng := rand.New(rand.NewSource(17))
		g := graph.New(nodes)
		for i := 0; i < 3*nodes; i++ {
			u := graph.NodeID(rng.Intn(nodes))
			v := graph.NodeID(rng.Intn(nodes))
			if u != v {
				g.MergeEdge(u, v, 0.05+0.25*rng.Float64())
			}
		}
		pi, err := partition.ByContiguous(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		return pi.Parts
	}()

	dir := t.TempDir()
	durSite, err := OpenDurableSite(dir, mk, 1, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sites := []*Site{NewSite(full[0], 1), durSite, NewSite(full[2], 1)}
	clients := make([]SiteClient, 3)
	for i, s := range sites {
		clients[i] = &LocalClient{Site: s, MeasureBytes: true}
	}
	coord := NewCoordinator(clients, Options{UseCache: true, Workers: 1})
	if err := coord.PrecomputeAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	q := control.Query{S: 5, T: nodes - 5} // endpoints in shards 0 and 2
	want, m1, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, m2, err := coord.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	} else if m2.CoordCacheHits != 1 {
		t.Fatalf("warm-up revalidation failed: %+v", m2)
	}

	// Apply a durable update to the cached middle site, then kill it.
	up := StakeUpdate{Owner: graph.NodeID(nodes/3 + 3), Owned: graph.NodeID(nodes/3 + 4), Weight: 0.44}
	if err := coord.ApplyUpdate(context.Background(), up); err != nil {
		t.Fatal(err)
	}
	if _, m3, err := coord.Answer(context.Background(), q); err != nil {
		t.Fatal(err)
	} else if m3.CoordCacheHits != 0 {
		t.Fatalf("stale copy served right after update: %+v", m3)
	}
	preEpoch := durSite.Epoch()
	if err := durSite.store.Kill(); err != nil {
		t.Fatal(err)
	}

	// Recover the site from disk and splice it into the same coordinator
	// slot — the coordinator itself keeps its caches.
	recovered, err := OpenDurableSite(dir, mk, 1, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.CloseStore()
	if recovered.Epoch() != preEpoch {
		t.Fatalf("recovered epoch %d, want %d", recovered.Epoch(), preEpoch)
	}
	clients[1].(*LocalClient).Site = recovered

	got, m4, err := coord.Answer(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("answer changed across restart: %v -> %v", want, got)
	}
	if m4.CoordCacheHits != 1 {
		t.Fatalf("coordinator refetched after restart (epoch vector did not survive): %+v", m4)
	}
	if m4.Bytes >= m1.Bytes {
		t.Fatalf("revalidated query shipped %dB, first shipped %dB", m4.Bytes, m1.Bytes)
	}
}
