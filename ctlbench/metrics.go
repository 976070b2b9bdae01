package main

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// split sorts records by kind.
func split(recs []rec) (queries, fresh, updates []rec) {
	for _, rc := range recs {
		switch rc.kind {
		case kindQuery:
			queries = append(queries, rc)
		case kindFresh:
			fresh = append(fresh, rc)
		case kindUpdate:
			updates = append(updates, rc)
		}
	}
	return
}

// latencies returns the latencies of the successful records, in ms.
func latencies(recs []rec) []float64 {
	var out []float64
	for _, rc := range recs {
		if !rc.failed {
			out = append(out, ms(rc.lat))
		}
	}
	return out
}

// endToEnd computes the user-visible metrics of a window, over every
// query that returned an answer, fresh ones included.
func endToEnd(sp spec, window float64, recs []rec) metrics {
	queries, fresh, _ := split(recs)
	all := append(queries, fresh...)
	m := metrics{}
	ok := latencies(all)
	m.set("qps", float64(len(ok))/window, "1/s")
	m.set("query_p50_ms", median(ok), "ms")
	m.set("query_tail_ms", quantile(ok, tailLevel(len(ok), sp.queryTail)), "ms")
	var bytes float64
	for _, rc := range all {
		bytes += float64(rc.bytes)
	}
	m.set("bytes_per_query", frac(bytes, float64(len(all))), "B")
	return m
}

// failures counts the failed records.
func failures(recs []rec) int {
	n := 0
	for _, rc := range recs {
		if rc.failed {
			n++
		}
	}
	return n
}

// perLayer computes the per-layer metrics of a traced run from the
// traced window, its replay samples, the follower lag samples and the
// change of the store counters. The coordinator's write latencies and the
// tracing overhead come from the untraced half, plain.
func perLayer(plain, window []rec, rp *replaySamples, lagNS []float64, st storeDelta) metrics {
	m := metrics{}
	_, fresh, updates := split(plain)
	up := latencies(updates)
	m.set("dist.coord.update_p50_ms", median(up), "ms")
	m.set("dist.coord.update_tail_ms", quantile(up, tailLevel(len(up), updateTail)), "ms")
	m.set("dist.coord.fresh_query_p50_ms", median(latencies(fresh)), "ms")
	p50 := func(recs []rec) float64 {
		q, f, _ := split(recs)
		return median(latencies(append(q, f...)))
	}
	m.set("trace.overhead_frac", frac(p50(window), p50(plain))-1, "frac")

	queries, fresh, updates := split(window)
	all := append(queries, fresh...)
	nq := float64(len(all))

	var gateWait []float64
	var fanout, coordSelf, live, decided, notMod, clientUpd []float64
	var calls, callBytes float64
	var routed, followerServed, reissued float64
	var closureNum, closureDen float64
	var merged, snapHits, nodes, edges float64
	for _, rc := range append(all, updates...) {
		if rc.tr == nil {
			continue
		}
		spans := rc.tr.spans
		self := selfTimes(spans)
		kids := make([]int, len(spans))
		lastKid := make([]int, len(spans))
		var fanLo, fanHi int64 = -1, -1
		var gate int64
		for i, s := range spans {
			if s.parent >= 0 {
				kids[s.parent]++
				lastKid[s.parent] = i
			}
			switch s.layer {
			case layerGate:
				gateWait = append(gateWait, ms(s.dur()))
				gate = s.dur()
			case layerClient:
				switch s.outcome {
				case outLive:
					live = append(live, ms(s.dur()))
				case outDecided:
					decided = append(decided, ms(s.dur()))
				case outNotModified:
					notMod = append(notMod, ms(s.dur()))
				}
				calls++
				callBytes += float64(s.bytes)
			case layerUpdate:
				if s.outcome == "stored" {
					clientUpd = append(clientUpd, ms(s.dur()))
				}
			}
			if s.parent == rootSpanID && (s.layer == layerClient || s.layer == layerRoute) {
				if fanLo < 0 || s.start < fanLo {
					fanLo = s.start
				}
				fanHi = max(fanHi, s.end)
			}
		}
		for i, s := range spans {
			if s.layer == layerRoute {
				routed++
				if kids[i] > 1 {
					reissued++
				}
				if last := spans[lastKid[i]]; kids[i] > 0 && last.member > 0 {
					followerServed++
				}
			}
		}
		if rc.kind == kindUpdate {
			continue
		}
		if fanLo >= 0 {
			fanout = append(fanout, ms(fanHi-fanLo))
			closureNum += float64(gate + fanHi - fanLo)
		}
		closureDen += float64(spans[rootSpanID].dur())
		coordSelf = append(coordSelf, ms(self[rootSpanID]))
		if rc.merged {
			merged++
		}
		if rc.snapHit {
			snapHits++
		}
		nodes += float64(rc.nodes)
		edges += float64(rc.edges)
	}
	for _, d := range rp.mergeNS {
		closureNum += d
	}
	for _, d := range rp.reduceNS {
		closureNum += d
	}

	m.set("fleet.gate.wait_p50_ms", median(gateWait), "ms")
	m.set("fleet.gate.wait_p99_ms", quantile(gateWait, 0.99), "ms")
	m.set("fleet.replicaset.follower_read_frac", frac(followerServed, routed), "frac")
	m.set("fleet.replicaset.reissue_per_update", frac(reissued, float64(len(updates))), "count")
	m.set("fleet.follower.lag_p50_ms", median(lagNS)/1e6, "ms")
	m.set("fleet.follower.lag_tail_ms", quantile(lagNS, tailLevel(len(lagNS), updateTail))/1e6, "ms")

	m.set("dist.coord.fanout_p50_ms", median(fanout), "ms")
	m.set("dist.coord.fanout_p99_ms", quantile(fanout, 0.99), "ms")
	m.set("dist.coord.self_p50_ms", median(coordSelf), "ms")
	m.set("dist.coord.merged_frac", frac(merged, nq), "frac")
	m.set("dist.coord.snapshot_hit_frac", frac(snapHits, merged), "frac")
	m.set("dist.client.live_p50_ms", median(live), "ms")
	m.set("dist.client.decided_p50_ms", median(decided), "ms")
	m.set("dist.client.notmodified_p50_ms", median(notMod), "ms")
	m.set("dist.client.calls_per_query", frac(calls, nq), "count")
	m.set("dist.client.bytes_per_call", frac(callBytes, calls), "B")
	m.set("dist.client.update_p50_ms", median(clientUpd), "ms")

	m.set("dist.site.evaluate_p50_ms", median(rp.evalNS)/1e6, "ms")
	m.set("dist.site.evaluate_p99_ms", quantile(rp.evalNS, 0.99)/1e6, "ms")
	m.set("dist.site.reduced_frac", frac(float64(rp.reduced), float64(rp.evals)), "frac")
	m.set("dist.site.precompute_p50_ms", median(rp.precomputeNS)/1e6, "ms")
	m.set("dist.site.apply_p50_ms", median(rp.applyNS)/1e6, "ms")
	m.set("graph.codec.encode_p50_us", median(rp.encodeNS)/1e3, "us")
	m.set("graph.codec.decode_p50_us", median(rp.decodeNS)/1e3, "us")
	m.set("graph.codec.bytes_per_edge", frac(float64(rp.codecBytes), float64(rp.codecEdges)), "B")
	m.set("graph.merge_p50_ms", median(rp.mergeNS)/1e6, "ms")
	m.set("graph.merged_nodes_per_query", frac(nodes, nq), "count")
	m.set("graph.merged_edges_per_query", frac(edges, nq), "count")
	m.set("control.coord_reduce_p50_ms", median(rp.reduceNS)/1e6, "ms")
	m.set("control.site_rounds_per_eval", mean(rp.rounds), "count")
	m.set("control.removed_per_eval", mean(rp.removed), "count")

	nu := float64(len(updates))
	m.set("store.fsyncs_per_update", frac(st.fsyncs, nu), "count")
	m.set("store.wal_bytes_per_update", frac(st.walBytes, nu), "B")
	m.set("store.checkpoints", st.checkpoints, "count")
	m.set("trace.closure_frac", frac(closureNum, closureDen), "frac")
	return m
}
