package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// opTimeout bounds one operation; one that takes longer counts as failed.
const opTimeout = 5 * time.Second

// Kinds of measured operation.
const (
	kindQuery = iota
	kindFresh // the first query after an update
	kindUpdate
)

// rec is one measured operation.
type rec struct {
	kind    int
	lat     int64 // ns
	failed  bool
	bytes   int64
	merged  bool
	snapHit bool
	nodes   int // merged-graph size at the coordinator
	edges   int
	tr      *trace
}

// runner drives one workload against one cluster.
type runner struct {
	w   *workload
	c   *cluster
	cur *cursor
	rp  *replayer // non-nil in the traced run

	mu    sync.Mutex
	recs  []rec
	wrong []string // answers that differ from the oracle

	// Follower lag, traced churn only.
	lagWG   sync.WaitGroup
	lagMu   sync.Mutex
	lagNS   []float64
	seenSeq []uint64
}

func newRunner(w *workload, c *cluster, cur *cursor) *runner {
	r := &runner{w: w, c: c, cur: cur, seenSeq: make([]uint64, len(c.sites))}
	for i, s := range c.sites {
		r.seenSeq[i] = s.LeaderSeq()
	}
	return r
}

func (r *runner) record(rc rec) {
	r.mu.Lock()
	r.recs = append(r.recs, rc)
	r.mu.Unlock()
}

func (r *runner) mismatch(format string, args ...any) {
	r.mu.Lock()
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// query runs one query through the coordinator, checks the answer against
// the oracle and, when tracing (r.rp set), replays it on goroutine w's
// replay state.
func (r *runner) query(w int, p pair, kind int) rec {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := now()
	var tr *trace
	if r.rp != nil {
		tr = newTrace(layerCoord, start)
		ctx = withTrace(ctx, tr)
	}
	ans, m, err := r.c.coord.Answer(ctx, p.q)
	end := now()
	rc := rec{kind: kind, lat: end - start, tr: tr}
	if tr != nil {
		tr.finish(end)
	}
	switch {
	case err != nil:
		// Errors, timeouts and sheds by the admission gate alike.
		rc.failed = true
	case ans != p.want:
		r.mismatch("%v: cluster answered %v, oracle %v", p.q, ans, p.want)
	}
	if m != nil {
		rc.bytes = m.Bytes
		rc.merged = m.MergedQueries > 0
		rc.snapHit = m.SnapshotHits > 0
		rc.nodes, rc.edges = m.MGraphNodes, m.MGraphEdges
	}
	if r.rp != nil && err == nil {
		got, rerr := r.rp.workers[w].query(context.Background(), p.q)
		switch {
		case rerr != nil:
			r.mismatch("%v: replay failed: %v", p.q, rerr)
		case got != p.want || got != ans:
			r.mismatch("%v: replay answered %v, cluster %v, oracle %v", p.q, got, ans, p.want)
		}
	}
	return rc
}

// step applies one stake update through the coordinator, then runs the
// queries that follow it.
func (r *runner) step(st step) []rec {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	start := now()
	var tr *trace
	if r.rp != nil {
		tr = newTrace(layerCoord, start)
		ctx = withTrace(ctx, tr)
	}
	err := r.c.coord.ApplyUpdate(ctx, st.up)
	ack := now()
	cancel()
	if tr != nil {
		tr.finish(ack)
	}
	out := []rec{{kind: kindUpdate, lat: ack - start, failed: err != nil, tr: tr}}
	if r.rp != nil {
		r.watchLag(ack)
		if rerr := r.rp.workers[0].update(context.Background(), st.up); rerr != nil {
			r.mismatch("replaying %+v: %v", st.up, rerr)
		}
	}
	for j, p := range st.queries {
		kind := kindQuery
		if j == 0 {
			kind = kindFresh
		}
		out = append(out, r.query(0, p, kind))
	}
	return out
}

// watchLag times, for every leader whose WAL moved, how long after the
// update's acknowledgement its follower has applied the leader's head.
func (r *runner) watchLag(ack int64) {
	for i, f := range r.c.followers {
		seq := r.c.sites[i].LeaderSeq()
		if seq == r.seenSeq[i] {
			continue
		}
		r.seenSeq[i] = seq
		r.lagWG.Add(1)
		go func() {
			defer r.lagWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			defer cancel()
			if f.WaitForSeq(ctx, seq) == nil {
				d := now() - ack
				r.lagMu.Lock()
				r.lagNS = append(r.lagNS, float64(d))
				r.lagMu.Unlock()
			}
		}()
	}
}

// readWindow runs the workload's read load for d, continuing the query
// order at the cursor, and returns how long it took.
func (r *runner) readWindow(d time.Duration) time.Duration {
	order, pool, base := r.w.order, r.w.pool, r.cur.read
	var issued atomic.Int64
	pick := func(i int) pair {
		issued.Add(1)
		return pool[order[(base+i)%len(order)]]
	}
	defer func() { r.cur.read += int(issued.Load()) }()
	return closedLoop(clients, d, func(w, i int) {
		r.record(r.query(w, pick(i), kindQuery))
	})
}

// churnWindow runs the update sequence with its queries for d, from one
// client, continuing the sequence at the cursor, and returns how long it
// took.
func (r *runner) churnWindow(d time.Duration) time.Duration {
	next := func() step {
		st := r.w.steps[r.cur.step%len(r.w.steps)]
		r.cur.step++
		return st
	}
	took := closedLoop(1, d, func(_, _ int) {
		for _, rc := range r.step(next()) {
			r.record(rc)
		}
	})
	// Finish an add/remove pair unmeasured, so the cluster (and the replay)
	// is back at its start state.
	for r.cur.step%2 == 1 {
		r.step(next())
	}
	return took
}

// take returns and clears the records collected so far.
func (r *runner) take() []rec {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.recs
	r.recs = nil
	return out
}
