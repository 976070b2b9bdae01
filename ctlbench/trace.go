package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ccp/internal/control"
	"ccp/internal/dist"
)

// The benchmark traces from outside the program: decorators it owns wrap
// the interfaces the coordinator already calls through, and record one span
// per call into the trace carried by the query's context. A context without
// a trace makes every decorator a pass-through.

// Layer names, by module.
const (
	layerCoord   = "dist.coord"       // the whole Coordinator call, timed by the load loop
	layerGate    = "fleet.gate"       // AdmissionGate.Admit
	layerRoute   = "fleet.replicaset" // a ReplicaSet's Evaluate, around its member calls
	layerClient  = "dist.client"      // one transport call to one site
	layerUpdate  = "dist.client.update"
	rootSpanID   = 0
	noParentSpan = -1
)

// Outcome of a client call, from the reply it got.
const (
	outLive        = "live"        // a live partial: the site cloned and reduced
	outDecided     = "decided"     // the site decided the query
	outNotModified = "notmodified" // the coordinator's cached copy is still valid
	outCache       = "cache"       // the site shipped its cached partial
	outFailed      = "failed"
)

var clock0 = time.Now()

// now is the trace clock: monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(clock0)) }

type span struct {
	layer      string
	start, end int64
	parent     int
	site       int
	outcome    string
	bytes      int64
	member     int // replica-set member index: 0 leader, >0 follower
}

func (s span) dur() int64 { return s.end - s.start }

// trace collects the spans of one operation. Span 0 is the root.
type trace struct {
	mu    sync.Mutex
	spans []span
}

func newTrace(layer string, start int64) *trace {
	return &trace{spans: []span{{layer: layer, start: start, parent: noParentSpan, site: -1}}}
}

func (t *trace) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *trace) finish(end int64) {
	t.mu.Lock()
	t.spans[rootSpanID].end = end
	t.mu.Unlock()
}

type traceKey struct{}
type parentKey struct{}

func withTrace(ctx context.Context, t *trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// traceOf returns the context's trace and the span new spans hang under.
func traceOf(ctx context.Context) (*trace, int) {
	t, _ := ctx.Value(traceKey{}).(*trace)
	if t == nil {
		return nil, 0
	}
	p, ok := ctx.Value(parentKey{}).(int)
	if !ok {
		p = rootSpanID
	}
	return t, p
}

// union returns the total length covered by a set of intervals, each
// clipped to [lo, hi]; overlapping intervals count once.
func union(iv [][2]int64, lo, hi int64) int64 {
	c := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	for i, x := range c {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if len(c) > 0 {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's duration minus the union of its children's
// intervals: parallel children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - union(kids[i], s.start, s.end)
	}
	return out
}

// gateTap decorates the admission gate.
type gateTap struct {
	inner dist.AdmissionGate
	delay time.Duration // injected by tests
}

func (g *gateTap) Admit(ctx context.Context) (func(), error) {
	t, parent := traceOf(ctx)
	if t == nil {
		return g.inner.Admit(ctx)
	}
	start := now()
	if g.delay > 0 {
		time.Sleep(g.delay)
	}
	release, err := g.inner.Admit(ctx)
	s := span{layer: layerGate, start: start, end: now(), parent: parent, site: -1}
	if err != nil {
		s.outcome = outFailed
	}
	t.add(s)
	return release, err
}

// clientTap decorates one site client: a RemoteClient (layer dist.client)
// or a ReplicaSet (layer fleet.replicaset, whose members are dist.client
// taps of their own). Calls other than Evaluate and Update pass through.
type clientTap struct {
	dist.SiteClient
	layer  string
	member int
	delay  time.Duration // injected by tests
}

func (c *clientTap) Evaluate(ctx context.Context, q control.Query, opts dist.EvalOptions) (*dist.PartialAnswer, int64, error) {
	t, parent := traceOf(ctx)
	if t == nil {
		return c.SiteClient.Evaluate(ctx, q, opts)
	}
	start := now()
	id := t.add(span{layer: c.layer, start: start, parent: parent, site: c.SiteID(), member: c.member})
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	pa, n, err := c.SiteClient.Evaluate(context.WithValue(ctx, parentKey{}, id), q, opts)
	end := now()
	out := outFailed
	if err == nil {
		out = outcomeOf(pa)
	}
	t.mu.Lock()
	sp := &t.spans[id]
	sp.end, sp.outcome, sp.bytes = end, out, n
	t.mu.Unlock()
	return pa, n, err
}

func (c *clientTap) Update(ctx context.Context, up dist.StakeUpdate) (dist.UpdateResult, error) {
	t, parent := traceOf(ctx)
	if t == nil || c.layer != layerClient {
		return c.SiteClient.Update(ctx, up)
	}
	start := now()
	res, err := c.SiteClient.Update(ctx, up)
	s := span{layer: layerUpdate, start: start, end: now(), parent: parent, site: c.SiteID(), member: c.member}
	if res.Stored {
		s.outcome = "stored"
	}
	if err != nil {
		s.outcome = outFailed
	}
	t.add(s)
	return res, err
}

// Epoch forwards the wrapped client's optional epoch probe, which a
// ReplicaSet uses to raise its write watermark after cross-in adjustments;
// embedding the interface alone would hide it.
func (c *clientTap) Epoch(ctx context.Context) (uint64, error) {
	if e, ok := c.SiteClient.(interface {
		Epoch(context.Context) (uint64, error)
	}); ok {
		return e.Epoch(ctx)
	}
	return 0, fmt.Errorf("site %d: client has no epoch probe", c.SiteID())
}

// Health forwards the wrapped client's health, so replica routing still
// skips members whose circuit is open.
func (c *clientTap) Health() dist.SiteHealth {
	if h, ok := c.SiteClient.(dist.HealthReporter); ok {
		return h.Health()
	}
	return dist.SiteHealth{SiteID: c.SiteID()}
}

func outcomeOf(pa *dist.PartialAnswer) string {
	switch {
	case pa.NotModified:
		return outNotModified
	case pa.Ans != control.Unknown:
		return outDecided
	case pa.FromCache:
		return outCache
	default:
		return outLive
	}
}
