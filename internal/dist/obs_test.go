package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/obs"
	"ccp/internal/obs/flight"
	"ccp/internal/partition"
)

// fillNonZero sets every settable field of v to a non-zero value, so a
// struct can be checked field-by-field after an accumulation pass.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fillNonZero(s.Index(0))
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fillNonZero(v.Field(i))
			}
		}
	}
}

// TestMetricsAddQueryCoversAllFields guards the batch accumulator against
// new Metrics fields: every field of a fully non-zero query Metrics must
// reach the batch total through AddQuery. Adding a field to Metrics without
// teaching AddQuery about it fails here, not in a dashboard three weeks
// later.
func TestMetricsAddQueryCoversAllFields(t *testing.T) {
	// DecidedBy is deliberately not accumulated: a batch has no single
	// deciding site (documented on AddQuery).
	exceptions := map[string]bool{"DecidedBy": true}

	var q Metrics
	fillNonZero(reflect.ValueOf(&q).Elem())

	var total Metrics
	total.AddQuery(&q)

	tv := reflect.ValueOf(total)
	for i := 0; i < tv.NumField(); i++ {
		name := tv.Type().Field(i).Name
		if exceptions[name] {
			continue
		}
		if tv.Field(i).IsZero() {
			t.Errorf("Metrics.%s is not accumulated by AddQuery — new field without accumulation?", name)
		}
	}
}

// traceTestCluster builds a 2-partition graph with a control chain that
// crosses the cut (0 -> 1 -> 5 -> 6), serves both partitions over real TCP,
// and returns connected remote clients.
func traceTestCluster(t *testing.T) []SiteClient {
	t.Helper()
	g := graph.New(8)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 5}, {5, 6}, {2, 3}, {4, 7}} {
		if err := g.AddEdge(e[0], e[1], 0.9); err != nil {
			t.Fatal(err)
		}
	}
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]SiteClient, len(pi.Parts))
	for i, p := range pi.Parts {
		addr := startServer(t, NewSite(p, 1))
		c, err := Dial(context.Background(), addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	return clients
}

func TestStitchedTraceOverTCP(t *testing.T) {
	coord := NewCoordinator(traceTestCluster(t), Options{})
	ans, m, tr, err := coord.AnswerTraced(context.Background(), control.Query{S: 0, T: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !ans {
		t.Fatal("0 should control 6 through the cross-partition chain")
	}
	if tr == nil || tr.TraceID == 0 {
		t.Fatalf("no trace returned: %+v", tr)
	}
	if tr.DurNS <= 0 {
		t.Fatalf("trace duration = %d", tr.DurNS)
	}

	// Acceptance: at least one span per contacted site, plus the
	// coordinator's own phases, all on one re-based timeline.
	spansBySite := map[int32]int{}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		spansBySite[sp.Site]++
		names[sp.Name] = true
		if sp.StartNS < 0 || sp.DurNS < 0 {
			t.Errorf("span %s has negative timing: start=%d dur=%d", sp.Name, sp.StartNS, sp.DurNS)
		}
		if sp.StartNS > tr.DurNS {
			t.Errorf("span %s starts after the trace ends (start=%d total=%d)", sp.Name, sp.StartNS, tr.DurNS)
		}
	}
	for site := 0; site < m.SitesQueried; site++ {
		if spansBySite[int32(site)] < 1 {
			t.Errorf("contacted site %d contributed no spans: %v", site, spansBySite)
		}
	}
	for _, want := range []string{"site.rpc", "coord.merge", "coord.reduce"} {
		if !names[want] {
			t.Errorf("stitched trace missing %q spans (have %v)", want, names)
		}
	}
}

func TestSlowQueryLogCapturesDistributedQueries(t *testing.T) {
	o := obs.NewObserver(obs.ObserverConfig{SlowQueryThreshold: time.Nanosecond, SlowLogCapacity: 8})
	coord := NewCoordinator(traceTestCluster(t), Options{Observer: o})
	// The plain Answer API: tracing happens because the slow log demands
	// it, and every query beats a 1ns threshold.
	if _, _, err := coord.Answer(context.Background(), control.Query{S: 0, T: 6}); err != nil {
		t.Fatal(err)
	}
	if got := o.SlowLog().Len(); got != 1 {
		t.Fatalf("slow log holds %d traces, want 1", got)
	}
	tr := o.SlowLog().Snapshot()[0]
	if tr.Query != "controls(0,6)" {
		t.Errorf("slow trace query = %q", tr.Query)
	}
	if len(tr.Spans) == 0 {
		t.Error("slow trace has no spans")
	}
}

func TestUntracedRequestsCarryNoSpans(t *testing.T) {
	clients := traceTestCluster(t)
	pa, _, err := clients[1].Evaluate(context.Background(), control.Query{S: 0, T: 6}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Spans != nil {
		t.Fatalf("untraced evaluate returned %d spans", len(pa.Spans))
	}
}

func TestCoordinatorMetricsRegistered(t *testing.T) {
	o := obs.NewObserver(obs.ObserverConfig{})
	coord := NewCoordinator(traceTestCluster(t), Options{Observer: o})
	if _, _, err := coord.Answer(context.Background(), control.Query{S: 0, T: 6}); err != nil {
		t.Fatal(err)
	}
	reg := o.Registry()
	if got := reg.Counter("ccp_queries_total", "").Value(); got != 1 {
		t.Errorf("ccp_queries_total = %d, want 1", got)
	}
	if got := reg.Histogram(MetricQuerySeconds, "", obs.DefaultLatencyBuckets).Snapshot().Count; got != 1 {
		t.Errorf("%s count = %d, want 1", MetricQuerySeconds, got)
	}
	for _, phase := range []string{"sites", "merge", "reduce"} {
		h := reg.Histogram(MetricQueryPhaseSeconds, "", obs.DefaultLatencyBuckets,
			obs.Label{Key: "phase", Value: phase})
		if h.Snapshot().Count == 0 {
			t.Errorf("phase %q not observed", phase)
		}
	}
}

// FuzzTraceIDWireRoundTrip sends an evaluate request carrying any query id,
// traced or not, through the gob wire frames and a real site server. The id
// and the trace bit must arrive unchanged, the site's flight event must carry
// the id, and the response must ship spans exactly when the request asked
// for them: a transport that turned tracing on by itself would trace the
// whole cluster.
func FuzzTraceIDWireRoundTrip(f *testing.F) {
	f.Add(uint64(0), false)
	f.Add(uint64(1), true)
	f.Add(^uint64(0), false)
	f.Add(uint64(1)<<63, true)

	g := graph.New(4)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1], 0.9); err != nil {
			f.Fatal(err)
		}
	}
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		f.Fatal(err)
	}
	site := NewSite(pi.Parts[0], 1)
	o := obs.NewObserver(obs.ObserverConfig{FlightEvents: 1})
	site.Observe(o)
	srv := NewServer(site, ServerConfig{})

	f.Fuzz(func(t *testing.T, id uint64, trace bool) {
		var buf bytes.Buffer
		req := request{ID: 42, Op: opEvaluate, S: 0, T: 3, QueryID: id, Trace: trace}
		if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
			t.Fatal(err)
		}
		var gotReq request
		if err := gob.NewDecoder(&buf).Decode(&gotReq); err != nil {
			t.Fatal(err)
		}
		if gotReq.QueryID != id || gotReq.Trace != trace {
			t.Fatalf("request (id %d, trace %v) arrived as (id %d, trace %v)",
				id, trace, gotReq.QueryID, gotReq.Trace)
		}

		resp := srv.serve(context.Background(), &gotReq)
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		evs := o.Flight().Snapshot().Events
		if len(evs) == 0 || evs[len(evs)-1].Type != flight.SiteEval || evs[len(evs)-1].Trace != id {
			t.Fatalf("last site flight event does not carry query id %d: %+v", id, evs)
		}
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		obs.PutSpans(resp.Spans)
		var gotResp response
		if err := gob.NewDecoder(&buf).Decode(&gotResp); err != nil {
			t.Fatal(err)
		}
		if trace != (len(gotResp.Spans) > 0) {
			t.Fatalf("trace=%v but the response shipped %d spans", trace, len(gotResp.Spans))
		}
		if !trace && gotResp.Spans != nil {
			t.Fatalf("untraced response grew spans: %v", gotResp.Spans)
		}
	})
}
