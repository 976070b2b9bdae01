// Package flight implements an always-on, lock-cheap flight recorder: a
// sharded, bounded ring of small typed events that the query path writes on
// every significant step (query start/end, per-site RPCs, retries, redials,
// circuit transitions, reduction-round summaries, updates, slow-query
// promotions). When a query goes slow or a circuit trips, the recorder holds
// the last few thousand events of every process involved — a durable record
// of *what the system was doing*, dumpable via /debug/flight, on SIGQUIT,
// and mergeable across processes into one timeline (ccpctl flight).
//
// Recording is designed for the hot path: one fixed-size struct write under
// a per-shard mutex, zero allocations, nil-safe. Dumping while recording is
// safe (the dump takes the same shard mutexes) and bounded: a recorder never
// holds more than its configured event capacity.
package flight

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Type classifies a flight-recorder event.
type Type uint8

const (
	// QueryStart marks a distributed query entering the coordinator;
	// A1/A2 carry the query's source and target node ids.
	QueryStart Type = iota + 1
	// QueryEnd marks the query finishing; A1 is the end-to-end latency in
	// nanoseconds, A2 is 1 when the query failed.
	QueryEnd
	// SiteRPC is the coordinator-side envelope of one per-site call;
	// A1 is the call duration in nanoseconds, A2 the payload bytes.
	SiteRPC
	// SiteEval is the site-side record of serving one evaluation;
	// A1 is the evaluation duration in nanoseconds, A2 is 1 for a
	// cache-served answer.
	SiteEval
	// Retry is one per-call transport retry of an idempotent op; A1 is the
	// attempt number.
	Retry
	// Redial is a re-established connection; A1 is the lifetime redial
	// count.
	Redial
	// Circuit is a circuit-breaker transition; A1 is the new position
	// (0 closed, 1 open, 2 half-open), A2 the consecutive-failure count.
	Circuit
	// ReduceRound summarizes one reduction run; A1 is the round count,
	// A2 the nodes removed plus contracted.
	ReduceRound
	// Update is one stake update applied; A1/A2 carry owner and owned.
	Update
	// SlowQuery marks a trace promoted into the slow-query log; A1 is the
	// traced latency in nanoseconds.
	SlowQuery
	// SnapHit marks a merged-skeleton snapshot served from the coordinator's
	// snapshot cache; A1/A2 carry the skeleton's node and edge counts.
	SnapHit
	// SnapMiss marks a merge that found no reusable snapshot; A1 is the
	// number of cache-served partials the wanted key covered.
	SnapMiss
	// SnapBuild marks a merged skeleton being built and cached; A1 is the
	// build duration in nanoseconds, A2 the skeleton's edge count.
	SnapBuild
	// SnapEvict marks the snapshot cache clearing at capacity; A1 is the
	// number of entries dropped.
	SnapEvict
	// SnapDrop marks snapshots invalidated by an update; A1 is the number of
	// entries dropped, Site the updated site whose epoch moved.
	SnapDrop
	// WALAppend is one record appended to a site's durable WAL; A1 is the
	// record's sequence number, A2 the framed record bytes.
	WALAppend
	// CkptBuild is one durable-store checkpoint written; A1 is the build
	// duration in nanoseconds, A2 the checkpoint file bytes.
	CkptBuild
	// RecoverReplay marks a site store recovering on boot; A1 is the number
	// of WAL records replayed past the checkpoint, A2 the replay duration in
	// nanoseconds.
	RecoverReplay
	// QueryShed marks a query rejected by the coordinator's admission gate
	// before it started; A1/A2 carry the query's source and target node ids.
	QueryShed
	// ReplBootstrap marks a follower replica bootstrapping from the leader's
	// checkpoint image; A1 is the image's covered sequence number, A2 the
	// image bytes.
	ReplBootstrap
	// ReplApply marks a batch of WAL records applied on a follower; A1 is
	// the follower's applied sequence after the batch, A2 the batch size.
	ReplApply
	// ReplPull is the follower-side record of one pull round-trip; A1 is the
	// leader's durable sequence, A2 the number of records shipped (0 for an
	// empty long-poll).
	ReplPull
	// AuditViolation marks an invariant probe reporting a violation; A1 is
	// the probe's registry index, A2 the probe's lifetime violation count.
	AuditViolation
	// SLOBreach marks an SLO's fast+slow burn rates both crossing their
	// thresholds (entering breach); A1 is the SLO's registry index, A2 the
	// fast-window burn rate in thousandths.
	SLOBreach
	numTypes
)

var typeNames = [numTypes]string{
	QueryStart:     "query.start",
	QueryEnd:       "query.end",
	SiteRPC:        "site.rpc",
	SiteEval:       "site.eval",
	Retry:          "retry",
	Redial:         "redial",
	Circuit:        "circuit",
	ReduceRound:    "reduce.round",
	Update:         "update",
	SlowQuery:      "slow.query",
	SnapHit:        "snap.hit",
	SnapMiss:       "snap.miss",
	SnapBuild:      "snap.build",
	SnapEvict:      "snap.evict",
	SnapDrop:       "snap.drop",
	WALAppend:      "wal.append",
	CkptBuild:      "ckpt.build",
	RecoverReplay:  "recover.replay",
	QueryShed:      "query.shed",
	ReplBootstrap:  "repl.bootstrap",
	ReplApply:      "repl.apply",
	ReplPull:       "repl.pull",
	AuditViolation: "audit.violation",
	SLOBreach:      "slo.breach",
}

// String names the event type ("query.start", "circuit", ...).
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return "type" + strconv.Itoa(int(t))
}

// MarshalJSON renders the type as its string name, so /debug/flight dumps
// read without a decoder ring.
func (t Type) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.String())
}

// UnmarshalJSON accepts both the string name and the raw number.
func (t *Type) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		for i, name := range typeNames {
			if name == s {
				*t = Type(i)
				return nil
			}
		}
		return fmt.Errorf("flight: unknown event type %q", s)
	}
	var n uint8
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("flight: event type must be a string or number: %s", data)
	}
	*t = Type(n)
	return nil
}

// Event is one recorded step. The struct is fixed-size (no pointers, no
// strings) so recording never allocates and a ring of them is one flat
// block of memory.
type Event struct {
	// TS is the event time in nanoseconds since the Unix epoch, on the
	// recording process's clock.
	TS int64 `json:"ts"`
	// Trace correlates the event with a query (the coordinator's flight id,
	// carried to the sites on the wire); 0 for events outside any query.
	Trace uint64 `json:"trace,omitempty"`
	// A1/A2 are per-type arguments; see the Type constants.
	A1 int64 `json:"a1,omitempty"`
	A2 int64 `json:"a2,omitempty"`
	// Site is the partition id the event concerns, -1 at the coordinator.
	Site int32 `json:"site"`
	// Type classifies the event.
	Type Type `json:"type"`
}

// Detail renders the event's per-type arguments for the timeline view.
func (e Event) Detail() string {
	switch e.Type {
	case QueryStart:
		return fmt.Sprintf("s=%d t=%d", e.A1, e.A2)
	case QueryEnd:
		status := "ok"
		if e.A2 != 0 {
			status = "ERR"
		}
		return fmt.Sprintf("dur=%v %s", time.Duration(e.A1), status)
	case SiteRPC:
		return fmt.Sprintf("dur=%v bytes=%d", time.Duration(e.A1), e.A2)
	case SiteEval:
		src := "live"
		if e.A2 != 0 {
			src = "cache"
		}
		return fmt.Sprintf("dur=%v %s", time.Duration(e.A1), src)
	case Retry:
		return fmt.Sprintf("attempt=%d", e.A1)
	case Redial:
		return fmt.Sprintf("redials=%d", e.A1)
	case Circuit:
		pos := "closed"
		switch e.A1 {
		case 1:
			pos = "open"
		case 2:
			pos = "half-open"
		}
		return fmt.Sprintf("to=%s fails=%d", pos, e.A2)
	case ReduceRound:
		return fmt.Sprintf("rounds=%d reduced=%d", e.A1, e.A2)
	case Update:
		return fmt.Sprintf("owner=%d owned=%d", e.A1, e.A2)
	case SlowQuery:
		return fmt.Sprintf("dur=%v", time.Duration(e.A1))
	case SnapHit:
		return fmt.Sprintf("nodes=%d edges=%d", e.A1, e.A2)
	case SnapMiss:
		return fmt.Sprintf("cached=%d", e.A1)
	case SnapBuild:
		return fmt.Sprintf("dur=%v edges=%d", time.Duration(e.A1), e.A2)
	case SnapEvict, SnapDrop:
		return fmt.Sprintf("dropped=%d", e.A1)
	case WALAppend:
		return fmt.Sprintf("seq=%d bytes=%d", e.A1, e.A2)
	case CkptBuild:
		return fmt.Sprintf("dur=%v bytes=%d", time.Duration(e.A1), e.A2)
	case RecoverReplay:
		return fmt.Sprintf("replayed=%d dur=%v", e.A1, time.Duration(e.A2))
	case QueryShed:
		return fmt.Sprintf("s=%d t=%d", e.A1, e.A2)
	case ReplBootstrap:
		return fmt.Sprintf("seq=%d bytes=%d", e.A1, e.A2)
	case ReplApply:
		return fmt.Sprintf("applied=%d batch=%d", e.A1, e.A2)
	case ReplPull:
		return fmt.Sprintf("leader=%d recs=%d", e.A1, e.A2)
	case AuditViolation:
		return fmt.Sprintf("probe=%d violations=%d", e.A1, e.A2)
	case SLOBreach:
		return fmt.Sprintf("slo=%d burn=%d.%03dx", e.A1, e.A2/1000, e.A2%1000)
	default:
		return fmt.Sprintf("a1=%d a2=%d", e.A1, e.A2)
	}
}

// numShards spreads concurrent recorders over independent rings so the
// batch pipeline's overlapping queries do not serialize on one mutex. Must
// be a power of two.
const numShards = 8

// shard is one bounded event ring with its own lock. The padding keeps
// adjacent shards off one cache line, so two queries recording concurrently
// do not false-share.
type shard struct {
	mu    sync.Mutex
	ring  []Event
	total uint64 // lifetime events recorded into this shard
	_     [40]byte
}

// Recorder is the process-wide flight recorder. All methods are safe for
// concurrent use and nil-safe: a nil *Recorder records nothing, so
// uninstrumented components pay one pointer check.
type Recorder struct {
	shards [numShards]shard

	mu      sync.Mutex
	process string
}

// DefaultEvents is the total ring capacity a zero ObserverConfig selects:
// 8192 events ≈ 400 KB, a few thousand queries of context.
const DefaultEvents = 8192

// New builds a recorder holding up to capacity events (<= 0 selects
// DefaultEvents), attributed to the given process name ("coord", "site-3").
func New(process string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultEvents
	}
	per := capacity / numShards
	if per < 16 {
		per = 16
	}
	r := &Recorder{process: process}
	for i := range r.shards {
		r.shards[i].ring = make([]Event, 0, per)
	}
	return r
}

// SetProcess renames the recorder's process attribution (useful when the
// site id is only known after the recorder was built).
func (r *Recorder) SetProcess(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.process = name
	r.mu.Unlock()
}

// Process returns the recorder's process attribution.
func (r *Recorder) Process() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.process
}

// Record appends one event: a timestamp read, a shard pick, and one slot
// write under the shard mutex. It never allocates, so always-on recording
// adds no garbage to the query hot path.
func (r *Recorder) Record(t Type, site int32, trace uint64, a1, a2 int64) {
	if r == nil {
		return
	}
	// Fibonacci hashing over the trace id (mixed with the site so a site's
	// untraced events still spread) picks the shard; events of one query
	// land together, and concurrent queries land apart.
	h := (trace ^ uint64(uint32(site))*0x9E3779B9) * 0x9E3779B97F4A7C15
	s := &r.shards[h>>(64-3)] // top log2(numShards) bits
	e := Event{TS: time.Now().UnixNano(), Trace: trace, A1: a1, A2: a2, Site: site, Type: t}
	s.mu.Lock()
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, e)
	} else {
		s.ring[s.total%uint64(cap(s.ring))] = e
	}
	s.total++
	s.mu.Unlock()
}

// Dump is a point-in-time copy of a recorder, the /debug/flight payload.
type Dump struct {
	// Process attributes the events ("coord", "site-3").
	Process string `json:"process"`
	// TakenNS is when the dump was taken, nanoseconds since the Unix epoch.
	TakenNS int64 `json:"taken_unix_ns"`
	// Dropped counts events overwritten by the bounded ring — how much
	// history scrolled off before this dump.
	Dropped uint64 `json:"dropped"`
	// Events are the retained events, time-ordered.
	Events []Event `json:"events"`
}

// Snapshot copies the retained events out, merged across shards and sorted
// by timestamp. Safe to call while recording continues.
func (r *Recorder) Snapshot() Dump {
	if r == nil {
		return Dump{TakenNS: time.Now().UnixNano()}
	}
	d := Dump{Process: r.Process(), TakenNS: time.Now().UnixNano()}
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		d.Events = append(d.Events, s.ring...)
		d.Dropped += s.total - uint64(len(s.ring))
		s.mu.Unlock()
	}
	sortEvents(d.Events)
	return d
}

// Len reports how many events the recorder currently retains.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.ring)
		s.mu.Unlock()
	}
	return n
}

// sortEvents time-orders events in place. The rings are each time-ordered
// modulo wraparound; a plain stable sort keeps the dump path simple and runs
// off the hot path.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].Site < evs[j].Site
	})
}
