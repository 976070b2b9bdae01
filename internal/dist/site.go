// Package dist implements the distributed company-control runtime of
// Section VII: worker sites that compute partial answers by reducing their
// partition (partial evaluation), and a coordinator that assembles the
// partial answers, reduces the merged graph, and produces the final answer.
// Query-independent partial answers can be pre-computed and cached, so that
// at query time at most the two sites storing s and t evaluate anything.
//
// Sites and coordinator can run in one process (LocalClient) or as separate
// processes speaking a gob protocol over TCP (Serve / Dial), with byte-level
// accounting of everything that crosses the wire.
package dist

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/obs"
	"ccp/internal/obs/flight"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// PartialAnswer is a site's reply to a posted query: either a decided global
// answer (a trusted termination condition fired locally) or the reduced
// partition to be merged at the coordinator.
type PartialAnswer struct {
	SiteID int
	// Ans is True/False if the site decided the query, Unknown otherwise.
	Ans control.Answer
	// Reduced is the reduced partition; nil when Ans is decided.
	Reduced *graph.Graph
	// Stats reports the local reduction work.
	Stats control.Stats
	// Elapsed is the site-side evaluation time.
	Elapsed time.Duration
	// FromCache reports that the answer came from the query-independent
	// cache rather than a live evaluation.
	FromCache bool
	// Epoch is the site's data version the answer was computed at; it
	// changes whenever the site's partition changes. Replica-aware routing
	// compares it against the leader's last commit to detect stale follower
	// answers.
	Epoch uint64
	// NotModified reports that the coordinator's copy (requested via
	// EvalOptions.IfEpoch) is still valid; Reduced is nil.
	NotModified bool
	// Spans are the site-local trace spans of a traced evaluation
	// (EvalOptions.Trace), with StartNS relative to the start of
	// this evaluation. The slice is pooled: whoever serializes or stitches
	// it releases it with obs.PutSpans.
	Spans []obs.Span

	// pool, when non-nil, owns Reduced: the graph is pooled scratch, valid
	// until Release. Cached partials (FromCache) are never pooled — their
	// graph is shared site state.
	pool *sync.Pool
}

// Release returns a pooled Reduced graph for reuse and clears the reference.
// Callers that consumed the partial (merged it, encoded it) should release
// it; forgetting to is safe — the graph is simply garbage collected. Release
// on a nil, unpooled, or already-released answer is a no-op.
func (pa *PartialAnswer) Release() {
	if pa == nil || pa.pool == nil || pa.Reduced == nil {
		return
	}
	pa.pool.Put(pa.Reduced)
	pa.Reduced = nil
	pa.pool = nil
}

// Site evaluates queries over one partition — the per-site half of
// Algorithm 2. A Site is safe for concurrent use.
//
// Concurrency model: s.mu guards the mutable partition state (Local, the
// boundary sets, the query-independent cache). The evaluation hot path never
// reduces under s.mu — it works off an immutable epoch-versioned snapshot
// (s.snap) that is rebuilt at most once per data epoch, so concurrent
// evaluations share one read-only copy instead of serializing on a
// per-query clone under the lock.
type Site struct {
	mu      sync.Mutex
	part    *partition.Partition
	workers int

	cache      *graph.Graph // query-independent reduction of the partition
	cacheStats control.Stats
	cacheEpoch uint64 // epoch the cache was computed at

	// epoch versions the site's data; every applied update bumps it (under
	// s.mu, but readable lock-free).
	epoch atomic.Uint64

	// snap is the current immutable evaluation snapshot; snapMu serializes
	// rebuilds so an epoch bump triggers one clone, not one per waiter.
	// pins counts in-flight evaluations holding a snapshot: a snapshot is a
	// clone that shares only the immutable base adjacency with the live
	// graph, so it stays valid for as long as the query needs it, no matter
	// how many updates land meanwhile.
	snap   atomic.Pointer[siteSnapshot]
	snapMu sync.Mutex
	pins   atomic.Int64

	// store, when non-nil, is the durable WAL + checkpoint backing: every
	// effective update is logged before it is acknowledged, and the epoch
	// is the WAL sequence number — a version that survives restarts.
	store *store.Store

	// readOnly marks a follower replica: state changes arrive only through
	// ApplyReplicated, and the direct mutation paths are refused so a
	// misrouted write cannot fork the replica from its leader.
	readOnly atomic.Bool

	// scratch pools per-evaluation graph copies; exclusions pools the
	// per-query exclusion sets. Both reach zero steady-state allocations.
	// A pooled copy reuses its per-node buffers, which keeps
	// BenchmarkSiteEvaluateLive at about 2.3 ms/op and 12 KB/op against
	// about 3.1 ms/op and 1.3 MB/op for a fresh Clone per query.
	scratch    sync.Pool
	exclusions sync.Pool

	met siteMetrics
	fr  *flight.Recorder
	log *slog.Logger
}

// siteSnapshot is one immutable view of the partition: the
// local graph plus the boundary sets, all taken atomically under s.mu at a
// single epoch. Readers treat every field as read-only; an update replaces
// the whole snapshot (on the next evaluation) rather than invalidating it in
// place.
type siteSnapshot struct {
	epoch    uint64
	local    *graph.Graph
	boundary graph.NodeSet // InNodes ∪ Virtual at snapshot time
	inNodes  graph.NodeSet // InNodes at snapshot time (T2 trust check)
}

// snapshot returns the current-epoch snapshot, building it if the data moved
// since the last one. The double-checked build keeps the hot path at two
// atomic loads.
func (s *Site) snapshot() *siteSnapshot {
	if sn := s.snap.Load(); sn != nil && sn.epoch == s.epoch.Load() {
		return sn
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if sn := s.snap.Load(); sn != nil && sn.epoch == s.epoch.Load() {
		return sn
	}
	s.mu.Lock()
	// The clone shares the live graph's immutable base adjacency and copies
	// only per-node state and the overlay of updates, so a snapshot costs
	// O(nodes), not an O(nodes+edges) deep copy.
	sn := &siteSnapshot{
		epoch:    s.epoch.Load(),
		local:    s.part.Local.Clone(),
		boundary: s.part.Boundary(),
		inNodes:  graph.NewNodeSet(),
	}
	sn.inNodes.AddAll(s.part.InNodes)
	s.mu.Unlock()
	s.snap.Store(sn)
	return sn
}

// pin accounts an evaluation holding sn; the returned func releases the
// pin. Purely observational — the snapshot stays consistent with or
// without it — but the gauge makes snapshot lifetimes visible.
func (s *Site) pin() func() {
	s.pins.Add(1)
	return func() { s.pins.Add(-1) }
}

// takeExclusion builds the per-query exclusion set {s, t} ∪ boundary in a
// pooled map.
func (s *Site) takeExclusion(boundary graph.NodeSet, q control.Query) graph.NodeSet {
	x, _ := s.exclusions.Get().(graph.NodeSet)
	if x == nil {
		x = graph.NewNodeSet()
	} else {
		clear(x)
	}
	x.AddAll(boundary)
	x.Add(q.S)
	x.Add(q.T)
	return x
}

func (s *Site) putExclusion(x graph.NodeSet) { s.exclusions.Put(x) }

// takeScratch borrows a pooled graph for a per-evaluation copy; may return
// nil, which CloneInto treats as "allocate fresh".
func (s *Site) takeScratch() *graph.Graph {
	g, _ := s.scratch.Get().(*graph.Graph)
	return g
}

// siteMetrics are the site's registered series — zero-valued (all nil) on
// an unobserved site, where every update is a nil-check no-op.
type siteMetrics struct {
	evalSeconds *obs.Histogram
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	robs        *obs.ReducerObs
}

// Observe registers the site's metrics — evaluation latency, cache
// hits/misses, reduction-engine telemetry — on o's registry, labeled with
// the partition id. Call once, before the site starts serving.
func (s *Site) Observe(o *obs.Observer) {
	reg := o.Registry()
	id := strconv.Itoa(s.part.ID)
	l := obs.Label{Key: "site", Value: id}
	s.met.evalSeconds = reg.Histogram("ccp_site_evaluate_seconds",
		"Site-side evaluation latency in seconds.", obs.DefaultLatencyBuckets, l)
	s.met.cacheHits = reg.Counter("ccp_site_cache_hits_total",
		"Evaluations served from the query-independent cache.", l)
	s.met.cacheMisses = reg.Counter("ccp_site_cache_misses_total",
		"Evaluations answered by a live reduction or local decision.", l)
	s.met.robs = obs.NewReducerObs(reg, "site-"+id)
	reg.GaugeFunc("ccp_site_snapshot_pins",
		"Evaluations currently holding the site's epoch snapshot.",
		func() float64 { return float64(s.pins.Load()) }, l)
	reg.GaugeFunc("ccp_site_epoch",
		"The site's data epoch (the durable WAL sequence number when a store is attached).",
		func() float64 { return float64(s.epoch.Load()) }, l)
	s.fr = o.Flight()
	if s.store != nil {
		s.store.Observe(o, s.part.ID)
	}
}

// SetLogger routes the site's structured diagnostics (and the reducer's
// debug summaries) to l. Call before the site starts serving; nil discards.
func (s *Site) SetLogger(l *slog.Logger) { s.log = obs.LoggerOr(l) }

// NewSite wraps a partition. workers <= 0 means GOMAXPROCS.
func NewSite(p *partition.Partition, workers int) *Site {
	return &Site{part: p, workers: workers, cacheEpoch: ^uint64(0), log: obs.Discard()}
}

// OpenDurableSite builds a site backed by the durable store in dir:
// recovery loads the newest valid checkpoint and replays the WAL tail
// through the normal mutation path, then the site starts logging every
// effective update and checkpointing in the background. On a fresh (or
// empty) directory the partition comes from seed — typically the
// partition file the deployment was provisioned with.
//
// After recovery the site's epoch is the durable WAL sequence number it had
// before the restart, so coordinator caches versioned by epoch vectors
// revalidate with NotModified instead of refetching whole partitions.
func OpenDurableSite(dir string, seed func() (*partition.Partition, error), workers int, opts store.Options) (*Site, error) {
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	p, ckptSeq := st.Base()
	if p == nil {
		if p, err = seed(); err != nil {
			st.Close()
			return nil, err
		}
	}
	s := NewSite(p, workers)
	s.store = st
	// The epoch is the sequence number of the last record that changed
	// observable state — exactly what the live site would have had.
	// Reference-count-only records (and an image that includes them) may
	// push it past the pre-crash value; that only costs one spurious cache
	// refetch, it can never alias two different states to one number.
	epoch := ckptSeq
	if err := st.Replay(func(rec store.Record) error {
		changed, err := s.applyRecord(rec)
		if err != nil {
			return err
		}
		if changed {
			epoch = rec.Seq
		}
		return nil
	}); err != nil {
		st.Close()
		return nil, fmt.Errorf("dist: site %d replaying wal: %w", p.ID, err)
	}
	s.epoch.Store(epoch)
	st.Start(func() (uint64, *partition.Partition) {
		// The image must cover every record applied so far — including
		// count-only ticks past the epoch — or replay would double-apply
		// them; appends happen under s.mu, so AppendedSeq is exact here.
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.store.AppendedSeq(), s.part.Snapshot()
	})
	return s, nil
}

// applyRecord replays one WAL record through the same partition mutations
// the live update path uses, reporting whether observable state changed.
// Called during recovery, before the site serves.
func (s *Site) applyRecord(rec store.Record) (bool, error) {
	switch rec.Kind {
	case store.KindStake:
		res, err := s.part.ApplyStake(graph.NodeID(rec.Owner), graph.NodeID(rec.Owned), rec.Weight, rec.Remove)
		if err != nil {
			return false, err
		}
		return res.Changed, nil
	case store.KindCrossIn:
		_, changed := s.part.AdjustCrossIn(graph.NodeID(rec.Owned), int(rec.Delta))
		return changed, nil
	case store.KindMark:
		return true, nil
	}
	return false, fmt.Errorf("dist: unknown wal record kind %d", rec.Kind)
}

// SetReadOnly marks the site as a follower replica: ApplyEdgeUpdate and
// AdjustCrossIn are refused (writes belong on the leader), and state changes
// arrive only through ApplyReplicated.
func (s *Site) SetReadOnly(v bool) { s.readOnly.Store(v) }

// ReadOnly reports whether the site refuses direct writes.
func (s *Site) ReadOnly() bool { return s.readOnly.Load() }

// ApplyReplicated applies one WAL record shipped from this site's leader,
// through the same mutation path recovery replay uses. Records must arrive
// in sequence order. The epoch moves to the record's sequence number exactly
// when observable state changed — reproducing the leader's epoch assignment
// bit for bit, which is what makes follower answers interchangeable with the
// leader's (same fragment, same version number).
func (s *Site) ApplyReplicated(rec store.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed, err := s.applyRecord(rec)
	if err != nil {
		return fmt.Errorf("dist: site %d applying replicated record %d: %w", s.part.ID, rec.Seq, err)
	}
	if changed {
		s.cache = nil
		s.epoch.Store(rec.Seq)
	}
	return nil
}

// SeedEpoch initializes the site's epoch from a replication bootstrap image
// covering seq. Call once, before the site serves.
func (s *Site) SeedEpoch(seq uint64) { s.epoch.Store(seq) }

// ReplicationSnapshot captures a consistent bootstrap image for a follower:
// the partition serialized in CCPP1 format, plus the WAL sequence number it
// covers. Only sites with a durable store can be replicated from.
func (s *Site) ReplicationSnapshot() (uint64, []byte, error) {
	if s.store == nil {
		return 0, nil, &SiteError{SiteID: s.part.ID, Op: "repl-snapshot",
			Msg: "site has no durable store to replicate from"}
	}
	// Seq and image are captured atomically under s.mu (appends happen under
	// the same lock); serialization runs outside it — the cloned image stays
	// consistent no matter how many updates land meanwhile.
	s.mu.Lock()
	seq := s.store.AppendedSeq()
	img := s.part.Snapshot()
	s.mu.Unlock()
	var buf bytes.Buffer
	if err := img.WriteBinary(&buf); err != nil {
		return 0, nil, fmt.Errorf("dist: site %d serializing bootstrap image: %w", s.part.ID, err)
	}
	return seq, buf.Bytes(), nil
}

// ReadRecords returns up to max WAL records with sequence numbers strictly
// greater than from, for shipping to a follower. A *store.TruncatedError
// means checkpointing already deleted segments the follower needs — it must
// re-bootstrap from ReplicationSnapshot.
func (s *Site) ReadRecords(from uint64, max int) ([]store.Record, error) {
	if s.store == nil {
		return nil, &SiteError{SiteID: s.part.ID, Op: "repl-pull",
			Msg: "site has no durable store to replicate from"}
	}
	return s.store.ReadFrom(from, max)
}

// LeaderSeq returns the last WAL sequence number assigned by this site —
// the reference a follower's lag is measured against. Zero without a store.
func (s *Site) LeaderSeq() uint64 {
	if s.store == nil {
		return 0
	}
	return s.store.AppendedSeq()
}

// CloseStore checkpoints and closes the site's durable store — a clean
// shutdown, after which the next boot replays nothing. It is idempotent
// and a no-op for a site without a store. Callers drain queries first;
// updates arriving after the close fail rather than silently losing
// durability.
func (s *Site) CloseStore() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Checkpoint forces a durable-store checkpoint immediately — sealing the
// active WAL segment and deleting segments the new checkpoint fully covers.
// A no-op for a site without a store. Tests and deployment tooling use it
// to bound the WAL tail on demand instead of waiting for the background
// triggers.
func (s *Site) Checkpoint() error {
	if s.store == nil {
		return nil
	}
	return s.store.Checkpoint()
}

// StoreStats returns the durable store's counters; ok is false for a site
// without a store.
func (s *Site) StoreStats() (store.Stats, bool) {
	if s.store == nil {
		return store.Stats{}, false
	}
	return s.store.Stats(), true
}

// Epoch returns the site's current data version (the durable WAL sequence
// number when a store is attached).
func (s *Site) Epoch() uint64 { return s.epoch.Load() }

// reduce runs a reduction with a pooled Reducer (the shared control-layer
// pool, so sites and the coordinator's batch workers draw from one scratch
// surface). A cancelled context stops the reduction at the next round
// boundary; the Reducer is returned to the pool either way (its next use
// resets all scratch state), so a cancelled query never poisons the site for
// the queries after it.
func (s *Site) reduce(ctx context.Context, g *graph.Graph, q control.Query, x graph.NodeSet, opt control.Options) (control.Result, error) {
	opt.Obs = s.met.robs
	opt.Logger = s.log
	r := control.GetReducer()
	res, err := r.Reduce(ctx, g, q, x, opt)
	control.PutReducer(r)
	return res, err
}

// ID returns the partition id this site serves.
func (s *Site) ID() int { return s.part.ID }

// Members returns the number of companies stored at the site.
func (s *Site) Members() int { return len(s.part.Members) }

// HoldsMember reports whether v is stored at this site (not just virtual).
func (s *Site) HoldsMember(v graph.NodeID) bool { return s.part.Members.Has(v) }

// Invalidate marks the site's data as changed, dropping the cached
// query-independent reduction. The evaluation snapshot is replaced lazily —
// the next evaluation sees the epoch moved and rebuilds. With a store
// attached the bump burns a real WAL sequence number (a mark record):
// epochs must stay unique per observable state across restarts, and a
// counter bump that is not in the log would be forgotten by recovery.
func (s *Site) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = nil
	if s.store != nil {
		if seq, err := s.store.Mark(); err == nil {
			s.epoch.Store(seq)
			return
		}
		s.log.Warn("invalidation mark not durable", "site", s.part.ID)
	}
	s.epoch.Add(1)
}

// Precompute builds (or refreshes) the query-independent reduction: the
// partition reduced with only the boundary nodes excluded. This is the
// offline work of Figure 6's cached sites. It returns the reduction stats.
// A cancelled or expired ctx aborts the build and leaves the cache
// untouched; the next Precompute starts over.
func (s *Site) Precompute(ctx context.Context) (control.Stats, error) {
	s.mu.Lock()
	epoch := s.epoch.Load()
	if s.cache != nil && s.cacheEpoch == epoch {
		st := s.cacheStats
		s.mu.Unlock()
		return st, nil
	}
	s.mu.Unlock()

	// Build from the epoch snapshot: the clone is private (the cache retains
	// it, so it cannot come from the scratch pool) and the snapshot's
	// boundary set is read-only to the reducer.
	sn := s.snapshot()
	g := sn.local.Clone()
	res, err := s.reduce(ctx, g, control.Query{S: graph.None, T: graph.None},
		sn.boundary, control.Options{
			Workers:            s.workers,
			DisableTermination: true, // there is no query yet
		})
	if err != nil {
		return control.Stats{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch.Load() == sn.epoch {
		s.cache = g
		s.cacheStats = res.Stats
		s.cacheEpoch = sn.epoch
	}
	return res.Stats, nil
}

// EvalOptions selects how a site evaluates a query.
type EvalOptions struct {
	// UseCache serves the query-independent cached reduction when neither
	// endpoint is stored at the site.
	UseCache bool
	// ForcePartial disables the early-termination answers, so the site
	// always returns its reduced partition. Measurement runs use it to
	// exercise the full assemble-and-merge pipeline on every query.
	ForcePartial bool
	// IfEpoch, when HasIfEpoch is set, asks the site to reply NotModified
	// instead of re-shipping its cached partial answer if the site's data
	// is still at that epoch — the conditional fetch behind the
	// coordinator-side cache of Figure 6.
	IfEpoch    uint64
	HasIfEpoch bool
	// QueryID identifies the query across coordinator and sites: the site's
	// flight-recorder events carry it, and a traced query's trace id is the
	// same number.
	QueryID uint64
	// Trace makes the site record spans for this evaluation and return them
	// in PartialAnswer.Spans. False (the default) keeps the hot path
	// span-free.
	Trace bool
}

// Evaluate computes the partial answer to q (Algorithm 2, line 6). With
// opts.UseCache set and neither endpoint stored here, the cached
// query-independent reduction is returned (computing it on demand).
// A cancelled or expired ctx stops the evaluation at the next reduction
// round and returns the context error; the site (and its pooled reducers)
// stay fully usable for subsequent queries.
func (s *Site) Evaluate(ctx context.Context, q control.Query, opts EvalOptions) (*PartialAnswer, error) {
	start := time.Now()
	holdsS := s.part.Members.Has(q.S)
	holdsT := s.part.Members.Has(q.T)

	if opts.UseCache && !holdsS && !holdsT {
		if _, err := s.Precompute(ctx); err != nil {
			return nil, err
		}
		s.mu.Lock()
		cached := s.cache
		st := s.cacheStats
		epoch := s.cacheEpoch
		s.mu.Unlock()
		if opts.HasIfEpoch && opts.IfEpoch == epoch {
			pa := &PartialAnswer{
				SiteID:      s.part.ID,
				Ans:         control.Unknown,
				Elapsed:     time.Since(start),
				FromCache:   true,
				Epoch:       epoch,
				NotModified: true,
			}
			s.observeEval(pa, opts, "site.revalidate", true)
			return pa, nil
		}
		pa := &PartialAnswer{
			SiteID:    s.part.ID,
			Ans:       control.Unknown,
			Reduced:   cached,
			Stats:     st,
			Elapsed:   time.Since(start),
			FromCache: true,
			Epoch:     epoch,
		}
		s.observeEval(pa, opts, "site.cache", true)
		return pa, nil
	}

	// Live evaluation, entirely off the immutable epoch snapshot: no lock is
	// held while classifying, cloning or reducing, so concurrent evaluations
	// never serialize on s.mu. The exclusion set is {s, t} ∪ V^in ∪ V^virt;
	// the early-termination conditions are trusted only where local knowledge
	// is complete (see control.TerminationTrust).
	sn := s.snapshot()
	defer s.pin()()
	trust := control.TerminationTrust{
		T1: holdsS,
		T2: holdsT && !sn.inNodes.Has(q.T),
	}
	if !opts.ForcePartial {
		// T1–T3 are O(1) on the cached aggregates and the reducer would
		// check them before doing any work anyway; deciding here skips the
		// partition copy entirely (BenchmarkSiteEvaluateDecided: about 1 µs
		// against about 110 µs with the copy). Same trust, same answer, same
		// (zero) stats as the reducer's round-0 exit.
		if a := control.CheckTermination(sn.local, q, trust); a != control.Unknown {
			pa := &PartialAnswer{
				SiteID:  s.part.ID,
				Ans:     a,
				Elapsed: time.Since(start),
				Epoch:   sn.epoch,
			}
			s.observeEval(pa, opts, "site.decide", false)
			return pa, nil
		}
	}
	x := s.takeExclusion(sn.boundary, q)
	g := sn.local.CloneInto(s.takeScratch())
	var spans []obs.Span
	var reduceStart time.Time
	if opts.Trace {
		reduceStart = time.Now()
		spans = append(obs.GetSpans(), obs.Span{
			Name:  "site.snapshot",
			Site:  int32(s.part.ID),
			DurNS: int64(reduceStart.Sub(start)),
		})
	}
	copts := control.Options{
		Workers: s.workers,
		Trust:   trust,
	}
	if opts.ForcePartial {
		copts.DisableTermination = true
	}
	res, err := s.reduce(ctx, g, q, x, copts)
	s.putExclusion(x)
	if err != nil {
		s.scratch.Put(g)
		obs.PutSpans(spans)
		return nil, err
	}
	pa := &PartialAnswer{
		SiteID:  s.part.ID,
		Ans:     res.Ans,
		Stats:   res.Stats,
		Elapsed: time.Since(start),
		Epoch:   sn.epoch,
	}
	if opts.ForcePartial {
		pa.Ans = control.Unknown
	}
	if pa.Ans == control.Unknown {
		pa.Reduced = g
		pa.pool = &s.scratch
	} else {
		s.scratch.Put(g)
	}
	if opts.Trace {
		pa.Spans = append(spans, obs.Span{
			Name:    "site.reduce",
			Site:    int32(s.part.ID),
			StartNS: int64(reduceStart.Sub(start)),
			DurNS:   int64(time.Since(reduceStart)),
		})
	}
	s.met.cacheMisses.Inc()
	s.met.evalSeconds.Observe(pa.Elapsed.Seconds())
	s.fr.Record(flight.ReduceRound, int32(s.part.ID), opts.QueryID,
		int64(res.Stats.Iterations), int64(res.Stats.Removed+res.Stats.Contracted))
	s.fr.Record(flight.SiteEval, int32(s.part.ID), opts.QueryID, int64(pa.Elapsed), 0)
	return pa, nil
}

// observeEval stamps metrics and a flight event for a single-step
// evaluation outcome and, when traced, attaches a one-span trace covering
// the whole step.
func (s *Site) observeEval(pa *PartialAnswer, opts EvalOptions, span string, cacheHit bool) {
	if cacheHit {
		s.met.cacheHits.Inc()
	} else {
		s.met.cacheMisses.Inc()
	}
	s.met.evalSeconds.Observe(pa.Elapsed.Seconds())
	hitFlag := int64(0)
	if cacheHit {
		hitFlag = 1
	}
	s.fr.Record(flight.SiteEval, int32(pa.SiteID), opts.QueryID, int64(pa.Elapsed), hitFlag)
	if opts.Trace {
		pa.Spans = append(obs.GetSpans(), obs.Span{
			Name:  span,
			Site:  int32(pa.SiteID),
			DurNS: int64(pa.Elapsed),
		})
	}
}
