package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// BenchMeta pins down the conditions a bench file was produced under, so a
// later comparison can tell a real regression from an apples-to-oranges run
// (different seed, scale, machine width, or toolchain). ccpbench embeds it
// in every file it writes.
type BenchMeta struct {
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
	GitRevision string  `json:"git_revision,omitempty"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Platform    string  `json:"platform"`
	Timestamp   string  `json:"timestamp"`
}

// CollectMeta gathers the current process's bench metadata. The git
// revision is best-effort (empty outside a checkout or without git).
func CollectMeta(seed int64, scale float64) BenchMeta {
	m := BenchMeta{
		Seed:       seed,
		Scale:      scale,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		m.GitRevision = strings.TrimSpace(string(out))
	}
	return m
}

// Series is one comparable measurement extracted from a bench file. Gated
// series count toward the regression verdict; the rest (latency quantiles,
// whose tails are noisy at CI scale) are reported for context only.
type Series struct {
	Name           string  `json:"name"`
	Value          float64 `json:"value"`
	HigherIsBetter bool    `json:"higher_is_better"`
	Gated          bool    `json:"gated"`
}

// throughputFile mirrors the BENCH_throughput.json shape ccpbench writes
// (cmd/ccpbench throughputDoc); only the fields the gate reads.
type throughputFile struct {
	Rows []struct {
		Concurrency      int     `json:"concurrency"`
		QueriesPerMinute float64 `json:"queries_per_minute"`
		P95MS            float64 `json:"p95_ms"`
		SnapshotHitRate  float64 `json:"snapshot_hit_rate"`
		SpeedupVsSerial  float64 `json:"speedup_vs_serial"`
	} `json:"rows"`
}

// reductionFile mirrors the hand-maintained BENCH_reduction.json shape: a
// map of benchmark names to before/after ns_op blocks.
type reductionFile struct {
	Benchmarks map[string]struct {
		After struct {
			NsOp float64 `json:"ns_op"`
		} `json:"after"`
	} `json:"benchmarks"`
}

// datalogFile mirrors the BENCH_datalog.json shape ccpbench writes
// (cmd/ccpbench datalogDoc); only the fields the gate reads.
type datalogFile struct {
	Engines []struct {
		Engine     string  `json:"engine"`
		NsPerQuery float64 `json:"ns_per_query"`
	} `json:"engines"`
	Speedup float64 `json:"speedup_planned_vs_seminaive"`
	Goal    struct {
		Fraction float64 `json:"fraction"`
	} `json:"goal"`
}

// storeFile mirrors the BENCH_store.json shape ccpbench writes
// (cmd/ccpbench storeDoc); only the fields the gate reads.
type storeFile struct {
	WAL struct {
		AppendsPerSecNoSync float64 `json:"appends_per_sec_nosync"`
		AppendsPerSecSync   float64 `json:"appends_per_sec_sync"`
		GroupCommitBatch    float64 `json:"group_commit_batch"`
	} `json:"wal"`
	Recovery []struct {
		Tail          int     `json:"tail"`
		Millis        float64 `json:"ms"`
		RecordsPerSec float64 `json:"records_per_sec"`
	} `json:"recovery"`
	Snapshot struct {
		Ratio float64 `json:"durable_over_memory"`
	} `json:"snapshot"`
}

// fleetFile mirrors the BENCH_fleet.json shape ccpbench writes
// (cmd/ccpbench fleetDoc); only the fields the gate reads.
type fleetFile struct {
	ReadThroughput []struct {
		Replicas int     `json:"replicas"`
		QPS      float64 `json:"qps"`
		Speedup  float64 `json:"speedup_vs_one_replica"`
	} `json:"read_throughput"`
	Lag struct {
		ConvergeMillis float64 `json:"converge_ms"`
		AppliedPerSec  float64 `json:"applied_per_sec"`
	} `json:"lag"`
	Admission struct {
		ShedRate float64 `json:"shed_rate"`
	} `json:"admission"`
}

// ExtractSeries pulls the comparable series out of a bench JSON document,
// auto-detecting its shape: a BENCH_throughput.json concurrency sweep
// (queries-per-minute gated, p95 informational), a BENCH_reduction.json
// record (after-state ns/op, gated, lower is better), a
// BENCH_datalog.json engine comparison (planned-vs-semi-naive speedup and
// goal fraction gated, per-engine ns/query informational), a
// BENCH_store.json durable-store record (buffered WAL append throughput,
// replay throughput at the longest tail, and the durable-vs-memory query
// ratio gated; fsync-bound series informational — they track the device,
// not the code), or a BENCH_fleet.json elastic-serving record (the
// multi-replica read speedup gated — it comes from paced replicas, so it
// measures the routing, not the machine; absolute qps, lag convergence and
// shed rate informational).
func ExtractSeries(data []byte) ([]Series, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("experiments: parsing bench file: %w", err)
	}
	var out []Series
	switch {
	case probe["rows"] != nil:
		var doc throughputFile
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("experiments: parsing throughput file: %w", err)
		}
		for _, r := range doc.Rows {
			out = append(out,
				Series{Name: fmt.Sprintf("throughput/qpm/c%d", r.Concurrency),
					Value: r.QueriesPerMinute, HigherIsBetter: true, Gated: true},
				Series{Name: fmt.Sprintf("throughput/p95_ms/c%d", r.Concurrency),
					Value: r.P95MS},
				Series{Name: fmt.Sprintf("throughput/snapshot_hit/c%d", r.Concurrency),
					Value: r.SnapshotHitRate, HigherIsBetter: true})
			// Batch-scaling is what this PR buys: gate the concurrent rows'
			// speedup over the in-file serial row, so a change that keeps
			// absolute qpm but loses scaling still fails the gate.
			if r.Concurrency > 1 && r.SpeedupVsSerial > 0 {
				out = append(out, Series{Name: fmt.Sprintf("throughput/speedup/c%d", r.Concurrency),
					Value: r.SpeedupVsSerial, HigherIsBetter: true, Gated: true})
			}
		}
	case probe["benchmarks"] != nil:
		var doc reductionFile
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("experiments: parsing reduction file: %w", err)
		}
		for name, b := range doc.Benchmarks {
			if b.After.NsOp > 0 {
				out = append(out, Series{Name: "reduction/" + name + "/ns_op",
					Value: b.After.NsOp, Gated: true})
			}
		}
	case probe["engines"] != nil:
		var doc datalogFile
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("experiments: parsing datalog file: %w", err)
		}
		for _, e := range doc.Engines {
			// Absolute per-engine times are machine-dependent; the in-file
			// ratios below are what the gate holds steady.
			out = append(out, Series{Name: "datalog/ns_per_query/" + e.Engine,
				Value: e.NsPerQuery})
		}
		if doc.Speedup > 0 {
			out = append(out, Series{Name: "datalog/speedup_planned_vs_seminaive",
				Value: doc.Speedup, HigherIsBetter: true, Gated: true})
		}
		if doc.Goal.Fraction > 0 {
			// Lower is better: a goal-directed query should touch a small
			// slice of the global fixpoint. A rising fraction means the
			// magic-sets seeding stopped restricting the evaluation.
			out = append(out, Series{Name: "datalog/goal_fraction",
				Value: doc.Goal.Fraction, Gated: true})
		}
	case probe["wal"] != nil:
		var doc storeFile
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("experiments: parsing store file: %w", err)
		}
		if doc.WAL.AppendsPerSecNoSync > 0 {
			out = append(out, Series{Name: "store/wal_appends_per_sec",
				Value: doc.WAL.AppendsPerSecNoSync, HigherIsBetter: true, Gated: true})
		}
		if doc.WAL.AppendsPerSecSync > 0 {
			// fsync throughput tracks the device; context only.
			out = append(out, Series{Name: "store/wal_appends_per_sec_sync",
				Value: doc.WAL.AppendsPerSecSync, HigherIsBetter: true})
		}
		if doc.WAL.GroupCommitBatch > 0 {
			out = append(out, Series{Name: "store/group_commit_batch",
				Value: doc.WAL.GroupCommitBatch, HigherIsBetter: true})
		}
		for i, r := range doc.Recovery {
			// Gate replay throughput only at the longest tail, where the
			// measurement is long enough to be stable; the short tails are
			// reported for the shape of the curve.
			gated := i == len(doc.Recovery)-1
			out = append(out, Series{Name: fmt.Sprintf("store/recovery_per_sec/t%d", r.Tail),
				Value: r.RecordsPerSec, HigherIsBetter: true, Gated: gated})
		}
		if doc.Snapshot.Ratio > 0 {
			// The whole durability+MVCC tax on the read path; ~1.0 when
			// snapshots stay cheap clones and commits stay off reads.
			out = append(out, Series{Name: "store/durable_over_memory_qps",
				Value: doc.Snapshot.Ratio, HigherIsBetter: true, Gated: true})
		}
	case probe["read_throughput"] != nil:
		var doc fleetFile
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("experiments: parsing fleet file: %w", err)
		}
		for _, r := range doc.ReadThroughput {
			out = append(out, Series{Name: fmt.Sprintf("fleet/read_qps/r%d", r.Replicas),
				Value: r.QPS, HigherIsBetter: true})
			if r.Replicas > 1 && r.Speedup > 0 {
				out = append(out, Series{Name: fmt.Sprintf("fleet/read_speedup/r%d", r.Replicas),
					Value: r.Speedup, HigherIsBetter: true, Gated: true})
			}
		}
		if doc.Lag.AppliedPerSec > 0 {
			out = append(out, Series{Name: "fleet/lag_applied_per_sec",
				Value: doc.Lag.AppliedPerSec, HigherIsBetter: true})
		}
		if doc.Lag.ConvergeMillis > 0 {
			out = append(out, Series{Name: "fleet/lag_converge_ms",
				Value: doc.Lag.ConvergeMillis})
		}
		if doc.Admission.ShedRate > 0 {
			// Informational: under a deliberate ~4x overload a healthy gate
			// sheds most of the excess, but the exact rate tracks scheduler
			// timing, not code quality.
			out = append(out, Series{Name: "fleet/shed_rate",
				Value: doc.Admission.ShedRate, HigherIsBetter: true})
		}
	default:
		return nil, fmt.Errorf("experiments: unrecognized bench file shape (want a \"rows\", \"benchmarks\", \"engines\", \"wal\" or \"read_throughput\" document)")
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: bench file holds no comparable series")
	}
	return out, nil
}

// LoadSeries reads a bench file and extracts its series.
func LoadSeries(path string) ([]Series, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ExtractSeries(data)
}

// Delta is one series' baseline-to-current movement. DeltaPct is signed so
// that positive always means improvement, whichever direction the series
// prefers.
type Delta struct {
	Name      string  `json:"name"`
	Baseline  float64 `json:"baseline"`
	Current   float64 `json:"current"`
	DeltaPct  float64 `json:"delta_pct"`
	Gated     bool    `json:"gated"`
	Regressed bool    `json:"regressed"`
}

func (d Delta) String() string {
	mark := " "
	switch {
	case d.Regressed:
		mark = "✗"
	case !d.Gated:
		mark = "·"
	}
	return fmt.Sprintf("%s %-28s %12.1f -> %12.1f  %+6.1f%%", mark, d.Name, d.Baseline, d.Current, d.DeltaPct)
}

// Compare matches current series against baseline by name and flags every
// gated series that moved in the bad direction by more than threshold
// (0.15 = 15%) — the noise floor below which CI-machine jitter is treated
// as a tie. Series present on only one side are skipped: a renamed or new
// benchmark is not a regression. Returns the deltas (baseline order) and
// whether any gated series regressed.
func Compare(baseline, current []Series, threshold float64) ([]Delta, bool) {
	if threshold <= 0 {
		threshold = 0.15
	}
	cur := make(map[string]Series, len(current))
	for _, s := range current {
		cur[s.Name] = s
	}
	var deltas []Delta
	regressed := false
	for _, b := range baseline {
		c, ok := cur[b.Name]
		if !ok || b.Value == 0 {
			continue
		}
		d := Delta{Name: b.Name, Baseline: b.Value, Current: c.Value, Gated: b.Gated}
		if b.HigherIsBetter {
			d.DeltaPct = 100 * (c.Value - b.Value) / b.Value
		} else {
			d.DeltaPct = 100 * (b.Value - c.Value) / b.Value
		}
		if b.Gated && d.DeltaPct < -100*threshold {
			d.Regressed = true
			regressed = true
		}
		deltas = append(deltas, d)
	}
	return deltas, regressed
}

// HistoryEntry is one line of BENCH_history.jsonl: the run's metadata, the
// measured series, and — when a baseline was compared — the deltas and the
// verdict. The file accretes one line per gate run, giving the perf history
// CI never keeps otherwise.
type HistoryEntry struct {
	Meta      BenchMeta `json:"meta"`
	Series    []Series  `json:"series"`
	Deltas    []Delta   `json:"deltas,omitempty"`
	Regressed bool      `json:"regressed"`
}

// AppendHistory appends e as one JSON line to path, creating the file on
// first use.
func AppendHistory(path string, e HistoryEntry) error {
	buf, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(buf, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
