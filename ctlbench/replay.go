package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strconv"

	"ccp/internal/control"
	"ccp/internal/dist"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

// replayer times the layers the TCP server hides. The traced run replays
// every measured operation in-process, on a private in-memory copy of the
// sites kept in step with the cluster, through the same public functions
// the serving path calls: Site.Evaluate, Precompute and ApplyEdgeUpdate;
// the CCPG1 codec (WriteBinary, DecodeBinaryInto); CloneInto and Merge;
// and control.ParallelReduction with X = {s, t}. It mirrors the
// coordinator's caching: sites revalidate cached partials by epoch, and
// cached partials merge once into a skeleton reused while their epochs hold.
// The sites are shared; each load goroutine replays into its own
// coordinator-side state, as each would hold its own pooled scratch.
type replayer struct {
	sites   []*dist.Site
	workers []*replayWorker
}

// replayWorker is one goroutine's coordinator-side replay state.
type replayWorker struct {
	sites []*dist.Site

	// The coordinator-side copy of each site's cached partial.
	cached []*graph.Graph
	epochs []uint64

	skels   map[string]*graph.Graph // merged cached partials, by epoch vector
	merged  *graph.Graph
	live    []*graph.Graph // decode arenas for live partials
	buf     bytes.Buffer
	exclude graph.NodeSet

	s replaySamples
}

// maxSkeletons bounds a worker's skeleton cache; it is dropped whole when
// full, as the coordinator drops a full snapshot shard.
const maxSkeletons = 64

// replaySamples are the per-layer measurements, in nanoseconds or counts.
type replaySamples struct {
	evalNS, precomputeNS, applyNS []float64
	evals, reduced                int
	rounds, removed               []float64
	encodeNS, decodeNS            []float64
	codecBytes, codecEdges        int64
	mergeNS, reduceNS             []float64
}

func newReplayer(ctx context.Context, g *graph.Graph, workers int) (*replayer, error) {
	pi, err := partition.ByContiguous(g, numSites)
	if err != nil {
		return nil, err
	}
	r := &replayer{}
	for _, p := range pi.Parts {
		s := dist.NewSite(p, 1)
		if _, err := s.Precompute(ctx); err != nil {
			return nil, err
		}
		r.sites = append(r.sites, s)
	}
	for i := 0; i < workers; i++ {
		r.workers = append(r.workers, &replayWorker{
			sites:   r.sites,
			cached:  make([]*graph.Graph, len(r.sites)),
			epochs:  make([]uint64, len(r.sites)),
			exclude: graph.NewNodeSet(),
			skels:   make(map[string]*graph.Graph),
		})
	}
	return r, nil
}

// prime gives every worker the coordinator-side copy of each site's cached
// partial, untimed, as the cluster's coordinator holds after warm-up.
func (r *replayer) prime(ctx context.Context) error {
	none := control.Query{S: graph.None, T: graph.None}
	for _, w := range r.workers {
		for i, s := range r.sites {
			pa, err := s.Evaluate(ctx, none, dist.EvalOptions{UseCache: true})
			if err != nil {
				return err
			}
			w.cached[i], w.epochs[i] = pa.Reduced.Clone(), pa.Epoch
		}
	}
	return nil
}

// samples merges and clears every worker's samples.
func (r *replayer) samples() replaySamples {
	var out replaySamples
	for _, w := range r.workers {
		out.add(&w.s)
		w.s = replaySamples{}
	}
	return out
}

func (s *replaySamples) add(o *replaySamples) {
	s.evalNS = append(s.evalNS, o.evalNS...)
	s.precomputeNS = append(s.precomputeNS, o.precomputeNS...)
	s.applyNS = append(s.applyNS, o.applyNS...)
	s.evals += o.evals
	s.reduced += o.reduced
	s.rounds = append(s.rounds, o.rounds...)
	s.removed = append(s.removed, o.removed...)
	s.encodeNS = append(s.encodeNS, o.encodeNS...)
	s.decodeNS = append(s.decodeNS, o.decodeNS...)
	s.codecBytes += o.codecBytes
	s.codecEdges += o.codecEdges
	s.mergeNS = append(s.mergeNS, o.mergeNS...)
	s.reduceNS = append(s.reduceNS, o.reduceNS...)
}

// query replays one query and returns its answer.
func (r *replayWorker) query(ctx context.Context, q control.Query) (bool, error) {
	decided := control.Unknown
	var live []*graph.Graph
	var cachedSites []int
	for i, s := range r.sites {
		opts := dist.EvalOptions{UseCache: true}
		if r.cached[i] != nil {
			opts.IfEpoch, opts.HasIfEpoch = r.epochs[i], true
		}
		t0 := now()
		pa, err := s.Evaluate(ctx, q, opts)
		d := now() - t0
		if err != nil {
			return false, err
		}
		if pa.NotModified {
			cachedSites = append(cachedSites, i)
			continue
		}
		r.s.evalNS = append(r.s.evalNS, float64(d))
		r.s.evals++
		if !pa.FromCache {
			// A cached partial's stats are its precompute's, not this query's.
			if pa.Stats.Iterations > 0 {
				r.s.reduced++
			}
			r.s.rounds = append(r.s.rounds, float64(pa.Stats.Iterations))
			r.s.removed = append(r.s.removed, float64(pa.Stats.Removed))
		}
		if pa.Ans != control.Unknown {
			if decided != control.Unknown && decided != pa.Ans {
				return false, fmt.Errorf("replay: sites decided %v inconsistently", q)
			}
			decided = pa.Ans
			continue
		}
		var dst *graph.Graph
		if !pa.FromCache {
			if len(r.live) <= len(live) {
				r.live = append(r.live, nil)
			}
			dst = r.live[len(live)]
		}
		g, err := r.ship(pa.Reduced, dst)
		pa.Release()
		if err != nil {
			return false, err
		}
		if pa.FromCache {
			r.cached[i], r.epochs[i] = g, pa.Epoch
			cachedSites = append(cachedSites, i)
		} else {
			r.live[len(live)] = g
			live = append(live, g)
		}
	}
	if decided != control.Unknown {
		return decided.Bool(), nil
	}

	t0 := now()
	var mg *graph.Graph
	if len(cachedSites) >= 2 {
		key := r.key(cachedSites)
		skel := r.skels[key]
		if skel == nil {
			if len(r.skels) >= maxSkeletons {
				clear(r.skels)
			}
			skel = graph.New(0)
			for _, i := range cachedSites {
				skel.Merge(r.cached[i])
			}
			r.skels[key] = skel
		}
		mg = skel.CloneInto(r.merged)
	} else {
		mg = r.merged
		if mg == nil {
			mg = graph.New(0)
		}
		mg.Reset()
		for _, i := range cachedSites {
			mg.Merge(r.cached[i])
		}
	}
	for _, g := range live {
		mg.Merge(g)
	}
	r.merged = mg
	t1 := now()
	clear(r.exclude)
	r.exclude.Add(q.S)
	r.exclude.Add(q.T)
	res, err := control.ParallelReduction(ctx, mg, q, r.exclude,
		control.Options{Workers: 1, Trust: control.FullTrust})
	t2 := now()
	if err != nil {
		return false, err
	}
	r.s.mergeNS = append(r.s.mergeNS, float64(t1-t0))
	r.s.reduceNS = append(r.s.reduceNS, float64(t2-t1))
	if res.Ans == control.Unknown {
		return false, fmt.Errorf("replay: merged reduction left %v undecided", q)
	}
	return res.Ans.Bool(), nil
}

// ship encodes a partial as a site server does and decodes it into dst as
// the client does, timing both.
func (r *replayWorker) ship(g, dst *graph.Graph) (*graph.Graph, error) {
	r.buf.Reset()
	t0 := now()
	if err := g.WriteBinary(&r.buf); err != nil {
		return nil, err
	}
	t1 := now()
	out, err := graph.DecodeBinaryInto(dst, r.buf.Bytes())
	t2 := now()
	if err != nil {
		return nil, err
	}
	r.s.encodeNS = append(r.s.encodeNS, float64(t1-t0))
	r.s.decodeNS = append(r.s.decodeNS, float64(t2-t1))
	r.s.codecBytes += int64(r.buf.Len())
	r.s.codecEdges += int64(g.NumEdges())
	return out, nil
}

func (r *replayWorker) key(sites []int) string {
	sort.Ints(sites)
	var b []byte
	for _, i := range sites {
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, r.epochs[i], 10)
		b = append(b, ';')
	}
	return string(b)
}

// update replays one stake update as Coordinator.ApplyUpdate routes it,
// then rebuilds the cached reduction of every site whose data moved, which
// the cluster does on demand at the next query.
func (r *replayWorker) update(ctx context.Context, up dist.StakeUpdate) error {
	before := make([]uint64, len(r.sites))
	var stored *dist.UpdateResult
	for i, s := range r.sites {
		before[i] = s.Epoch()
		t0 := now()
		res, err := s.ApplyEdgeUpdate(up)
		d := now() - t0
		if err != nil {
			return err
		}
		if res.Stored {
			r.s.applyNS = append(r.s.applyNS, float64(d))
			stored = &res
		}
	}
	if stored == nil {
		return fmt.Errorf("replay: no site stores company %d", up.Owner)
	}
	if stored.Cross && (stored.EdgeCreated || stored.EdgeRemoved) {
		delta := 1
		if stored.EdgeRemoved {
			delta = -1
		}
		for _, s := range r.sites {
			s.AdjustCrossIn(up.Owned, delta)
		}
	}
	for i, s := range r.sites {
		if s.Epoch() == before[i] {
			continue
		}
		t0 := now()
		if _, err := s.Precompute(ctx); err != nil {
			return err
		}
		r.s.precomputeNS = append(r.s.precomputeNS, float64(now()-t0))
	}
	return nil
}
