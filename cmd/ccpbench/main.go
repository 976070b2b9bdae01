// Command ccpbench regenerates the figures and tables of the paper's
// evaluation section on synthetic graphs.
//
// Usage:
//
//	ccpbench [-scale f] [-seed n] [-workers n] [-repeats n] [-concurrency n]
//	         <experiment>...
//
// Experiments: fig8a fig8b fig8c fig8d fig8e fig8f fig8g fig8h nettraffic
// riad serial ablations fig9a fig9b throughput contrast updates datalog
// store fleet, or "all". The datalog experiment writes its three-engine
// comparison to BENCH_datalog.json (see -datalog-out); the store experiment
// writes its WAL/recovery/snapshot measurements to BENCH_store.json (see
// -store-out); the fleet experiment writes its replica read-throughput,
// replication-lag and admission measurements to BENCH_fleet.json (see
// -fleet-out).
//
// With -concurrency n > 1, the throughput experiment sweeps batch
// concurrency 1, 2, 4, ... up to n and writes the qps rows to
// BENCH_throughput.json (see -throughput-out).
//
// Sizes default to laptop scale; pass -scale 10 (or more) to approach the
// paper's graph sizes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ccp/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1, "multiply all default graph sizes")
	seed := flag.Int64("seed", 42, "random seed")
	workers := flag.Int("workers", 0, "worker parallelism (0 = GOMAXPROCS)")
	repeats := flag.Int("repeats", 1, "average each timed point over n runs")
	concurrency := flag.Int("concurrency", 1,
		"max batch queries in flight (throughput experiment; >1 sweeps 1,2,4,... up to n and writes -throughput-out)")
	throughputOut := flag.String("throughput-out", "BENCH_throughput.json",
		"file the throughput concurrency sweep writes its qps rows to")
	throughputBaseline := flag.Float64("throughput-baseline", 0,
		"pre-change serial q/min to record alongside the sweep (0 omits it)")
	datalogOut := flag.String("datalog-out", "BENCH_datalog.json",
		"file the datalog experiment writes its engine comparison to (empty = don't write)")
	storeOut := flag.String("store-out", "BENCH_store.json",
		"file the store experiment writes its WAL/recovery/snapshot measurements to (empty = don't write)")
	fleetOut := flag.String("fleet-out", "BENCH_fleet.json",
		"file the fleet experiment writes its replica-throughput/lag/admission measurements to (empty = don't write)")
	compare := flag.String("compare", "",
		"baseline bench file (BENCH_throughput.json or BENCH_reduction.json shape) to gate against")
	compareWith := flag.String("compare-with", "",
		"current bench file to compare against -compare (default: the -throughput-out file, after running the experiments)")
	gateThreshold := flag.Float64("gate-threshold", 0.15,
		"noise floor for the regression gate: gated series may move this fraction in the bad direction before failing")
	history := flag.String("history", "",
		"append the comparison (meta, series, deltas, verdict) as one JSON line to this file, e.g. BENCH_history.jsonl")
	handicap := flag.Float64("handicap", 1,
		"self-test knob: divide the current throughput (and multiply latencies) by this factor before comparing, so the gate's failure path can be exercised on an unchanged tree")
	mutexProfile := flag.String("mutexprofile", "",
		"write a mutex contention profile of the run to this file (pprof format)")
	blockProfile := flag.String("blockprofile", "",
		"write a blocking profile of the run to this file (pprof format)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: ccpbench [flags] <experiment>...\nexperiments: %v\nflags:\n", names())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 && *compare == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.Config{
		Scale:       *scale,
		Seed:        *seed,
		Workers:     *workers,
		Repeats:     *repeats,
		Concurrency: *concurrency,
	}
	// Contention profiling must be armed before any experiment runs; the
	// profiles are cumulative over the whole process, which is exactly what
	// a sweep wants (every concurrency level contributes its contention).
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(100_000) // sample blocking events >= 100µs
	}
	args := flag.Args()
	if len(args) == 1 && args[0] == "all" {
		args = names()
	}
	for _, name := range args {
		var err error
		if name == "throughput" && cfg.Concurrency > 1 {
			err = runThroughputSweep(cfg, *throughputOut, *throughputBaseline)
		} else if name == "datalog" {
			err = runDatalogBench(cfg, *datalogOut)
		} else if name == "store" {
			err = runStoreBench(cfg, *storeOut)
		} else if name == "fleet" {
			err = runFleetBench(cfg, *fleetOut)
		} else {
			err = run(name, cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccpbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	for profile, path := range map[string]string{"mutex": *mutexProfile, "block": *blockProfile} {
		if err := writeProfile(profile, path); err != nil {
			fmt.Fprintf(os.Stderr, "ccpbench: %s profile: %v\n", profile, err)
			os.Exit(1)
		}
	}
	if *compare != "" {
		current := *compareWith
		if current == "" {
			current = *throughputOut
		}
		regressed, err := runGate(cfg, *compare, current, *gateThreshold, *handicap, *history)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccpbench: compare: %v\n", err)
			os.Exit(1)
		}
		if regressed {
			fmt.Fprintf(os.Stderr, "ccpbench: PERFORMANCE REGRESSION: gated series moved more than %.0f%% in the bad direction\n",
				*gateThreshold*100)
			os.Exit(3)
		}
		fmt.Printf("ccpbench: regression gate passed (threshold %.0f%%)\n", *gateThreshold*100)
	}
}

// writeProfile dumps the named runtime profile to path in pprof format.
// An empty path means the profile was not requested.
func writeProfile(name, path string) error {
	if path == "" {
		return nil
	}
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("runtime has no %q profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := p.WriteTo(f, 0)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// runGate compares the current bench file against the baseline, prints the
// per-series deltas, and optionally appends the outcome to the history
// file. A handicap > 1 degrades the current series first — the gate's
// negative self-test.
func runGate(cfg experiments.Config, baselinePath, currentPath string, threshold, handicap float64, historyPath string) (bool, error) {
	baseline, err := experiments.LoadSeries(baselinePath)
	if err != nil {
		return false, fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	current, err := experiments.LoadSeries(currentPath)
	if err != nil {
		return false, fmt.Errorf("current %s: %w", currentPath, err)
	}
	if handicap > 1 {
		for i := range current {
			if current[i].HigherIsBetter {
				current[i].Value /= handicap
			} else {
				current[i].Value *= handicap
			}
		}
		fmt.Printf("ccpbench: self-test handicap %.2gx applied to current series\n", handicap)
	}
	deltas, regressed := experiments.Compare(baseline, current, threshold)
	fmt.Printf("== regression gate — %s vs %s ==\n", baselinePath, currentPath)
	for _, d := range deltas {
		fmt.Printf("  %s\n", d)
	}
	// Absolute sanity on top of the relative gate: the planner exists to
	// beat semi-naive re-evaluation, so a current speedup below 1x is a
	// regression even if the baseline had already sunk that low.
	for _, s := range current {
		if s.Name == "datalog/speedup_planned_vs_seminaive" && s.Value < 1 {
			fmt.Printf("  ✗ sanity: planned datalog slower than semi-naive (%.2fx)\n", s.Value)
			regressed = true
		}
	}
	if historyPath != "" {
		entry := experiments.HistoryEntry{
			Meta:      experiments.CollectMeta(cfg.Seed, cfg.Scale),
			Series:    current,
			Deltas:    deltas,
			Regressed: regressed,
		}
		if err := experiments.AppendHistory(historyPath, entry); err != nil {
			return regressed, fmt.Errorf("appending %s: %w", historyPath, err)
		}
		fmt.Printf("  appended to %s\n", historyPath)
	}
	return regressed, nil
}

// throughputRow is one qps measurement of the concurrency sweep, as
// serialized into BENCH_throughput.json.
type throughputRow struct {
	Concurrency      int     `json:"concurrency"`
	Queries          int     `json:"queries"`
	ElapsedMS        float64 `json:"elapsed_ms"`
	QueriesPerMinute float64 `json:"queries_per_minute"`
	// P50/P95/P99 per-query latency, read back from the coordinator's
	// ccp_query_seconds histogram.
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	P99MS        float64 `json:"p99_ms"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// MergedQueries counts the queries that reached the coordinator's
	// merge path — the denominator of SnapshotHitRate. A sweep whose rows
	// report 0 here is measuring site evaluation, not coordination.
	MergedQueries   int     `json:"merged_queries"`
	SnapshotHitRate float64 `json:"snapshot_hit_rate"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// throughputDoc is the BENCH_throughput.json payload.
type throughputDoc struct {
	Benchmark string  `json:"benchmark"`
	Scale     float64 `json:"scale"`
	Seed      int64   `json:"seed"`
	// Meta pins the run's conditions (seed, git revision, go version,
	// GOMAXPROCS, ...) so later comparisons can reject apples-to-oranges
	// baselines.
	Meta experiments.BenchMeta `json:"meta"`
	// BaselineQPM records a reference serial measurement taken before the
	// change under test (passed via -throughput-baseline), so the file
	// carries before and after together.
	BaselineQPM float64 `json:"baseline_queries_per_minute,omitempty"`
	// Note flags measurement caveats (set automatically on a single-core
	// runner, where batch concurrency cannot buy wall-clock speedup).
	Note string          `json:"note,omitempty"`
	Rows []throughputRow `json:"rows"`
}

// runThroughputSweep measures throughput at concurrency 1, 2, 4, ... up to
// cfg.Concurrency (the serial row first, as the speedup baseline) and
// writes the rows to outPath.
func runThroughputSweep(cfg experiments.Config, outPath string, baselineQPM float64) error {
	fmt.Printf("== Throughput — pre-cached cluster, concurrency sweep ==\n")
	doc := throughputDoc{
		Benchmark:   "ccpbench throughput",
		Scale:       cfg.Scale,
		Seed:        cfg.Seed,
		Meta:        experiments.CollectMeta(cfg.Seed, cfg.Scale),
		BaselineQPM: baselineQPM,
	}
	if runtime.NumCPU() == 1 {
		doc.Note = "single-core runner: all concurrency levels timeshare one core, so " +
			"speedup_vs_serial ~= 1 by construction and per-query latency at concurrency > 1 " +
			"includes scheduler and GC queueing; see EXPERIMENTS.md (scaling sweep) for the " +
			"contention-profile evidence behind the multi-core expectation"
	}
	var serialQPM float64
	for _, conc := range sweepLevels(cfg.Concurrency) {
		c := cfg
		c.Concurrency = conc
		r, err := experiments.Throughput(c)
		if err != nil {
			return err
		}
		if conc == 1 {
			serialQPM = r.QueriesPerMinute
		}
		row := throughputRow{
			Concurrency:      r.Concurrency,
			Queries:          r.Queries,
			ElapsedMS:        float64(r.Elapsed.Microseconds()) / 1000,
			QueriesPerMinute: r.QueriesPerMinute,
			P50MS:            float64(r.P50.Microseconds()) / 1000,
			P95MS:            float64(r.P95.Microseconds()) / 1000,
			P99MS:            float64(r.P99.Microseconds()) / 1000,
			CacheHitRate:     r.CacheHitRate,
			MergedQueries:    r.MergedQueries,
			SnapshotHitRate:  r.SnapshotHitRate,
		}
		if serialQPM > 0 {
			row.SpeedupVsSerial = r.QueriesPerMinute / serialQPM
		}
		doc.Rows = append(doc.Rows, row)
		fmt.Printf("  %s speedup-vs-serial=%.2fx\n", r, row.SpeedupVsSerial)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n\n", outPath)
	return nil
}

// datalogDoc is the BENCH_datalog.json payload: the three-engine timing
// comparison plus the goal-directedness measurement.
type datalogDoc struct {
	Benchmark string                   `json:"benchmark"`
	Scale     float64                  `json:"scale"`
	Seed      int64                    `json:"seed"`
	Meta      experiments.BenchMeta    `json:"meta"`
	Engines   []experiments.DatalogRow `json:"engines"`
	// Speedup is the headline ratio the regression gate tracks: semi-naive
	// ns/query over planned ns/query on the same query batch.
	Speedup float64     `json:"speedup_planned_vs_seminaive"`
	Goal    datalogGoal `json:"goal"`
}

// datalogGoal records how much of the global fixpoint a single
// goal-directed control(s,t) query actually derives.
type datalogGoal struct {
	GlobalTuples int     `json:"global_tuples"`
	GoalTuples   int     `json:"goal_tuples"`
	Fraction     float64 `json:"fraction"`
}

// runDatalogBench runs the Datalog ablation, prints the rows, and (unless
// outPath is empty) writes the BENCH_datalog.json record the gate compares.
func runDatalogBench(cfg experiments.Config, outPath string) error {
	res, err := experiments.Datalog(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("== Datalog — planned goal-directed vs semi-naive vs CBE ==\n")
	for _, r := range res.Rows {
		fmt.Printf("  %s\n", r)
	}
	fmt.Printf("  speedup planned vs semi-naive: %.1fx\n", res.SpeedupPlannedVsSemiNaive)
	fmt.Printf("  goal-directed derivation: %d of %d fixpoint tuples (%.2f%%)\n",
		res.GoalTuples, res.GlobalTuples, 100*res.GoalFraction)
	if outPath == "" {
		fmt.Println()
		return nil
	}
	doc := datalogDoc{
		Benchmark: "ccpbench datalog",
		Scale:     cfg.Scale,
		Seed:      cfg.Seed,
		Meta:      experiments.CollectMeta(cfg.Seed, cfg.Scale),
		Engines:   res.Rows,
		Speedup:   res.SpeedupPlannedVsSemiNaive,
		Goal: datalogGoal{
			GlobalTuples: res.GlobalTuples,
			GoalTuples:   res.GoalTuples,
			Fraction:     res.GoalFraction,
		},
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n\n", outPath)
	return nil
}

// storeDoc is the BENCH_store.json shape: the durable-store measurements
// under a top-level "wal" key the regression gate auto-detects.
type storeDoc struct {
	Benchmark string                         `json:"benchmark"`
	Scale     float64                        `json:"scale"`
	Seed      int64                          `json:"seed"`
	Meta      experiments.BenchMeta          `json:"meta"`
	WAL       any                            `json:"wal"`
	Recovery  []experiments.StoreRecoveryRow `json:"recovery"`
	Snapshot  any                            `json:"snapshot"`
}

// runStoreBench runs the durable-store experiment, prints the rows, and
// (unless outPath is empty) writes the BENCH_store.json record the gate
// compares.
func runStoreBench(cfg experiments.Config, outPath string) error {
	res, err := experiments.StoreBench(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("== Durable store — WAL, recovery, MVCC snapshots ==\n")
	fmt.Printf("  wal append (nosync):      %10.0f records/s\n", res.WAL.AppendsPerSecNoSync)
	fmt.Printf("  wal append (fsync):       %10.0f records/s (%.1f appends/fsync)\n",
		res.WAL.AppendsPerSecSync, res.WAL.GroupCommitBatch)
	for _, r := range res.Recovery {
		fmt.Printf("  %s\n", r)
	}
	fmt.Printf("  mixed queries (memory):   %10.1f q/s\n", res.Snapshot.MemoryQPS)
	fmt.Printf("  mixed queries (durable):  %10.1f q/s (%.2fx of memory)\n",
		res.Snapshot.DurableQPS, res.Snapshot.Ratio)
	if outPath == "" {
		fmt.Println()
		return nil
	}
	doc := storeDoc{
		Benchmark: "ccpbench store",
		Scale:     cfg.Scale,
		Seed:      cfg.Seed,
		Meta:      experiments.CollectMeta(cfg.Seed, cfg.Scale),
		WAL:       res.WAL,
		Recovery:  res.Recovery,
		Snapshot:  res.Snapshot,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n\n", outPath)
	return nil
}

// fleetDoc is the BENCH_fleet.json shape: the elastic-serving-tier
// measurements under a top-level "read_throughput" key the regression gate
// auto-detects.
type fleetDoc struct {
	Benchmark      string                     `json:"benchmark"`
	Scale          float64                    `json:"scale"`
	Seed           int64                      `json:"seed"`
	Meta           experiments.BenchMeta      `json:"meta"`
	ReadThroughput []experiments.FleetReadRow `json:"read_throughput"`
	Lag            any                        `json:"lag"`
	Admission      any                        `json:"admission"`
}

// runFleetBench runs the elastic-serving-tier experiment, prints the rows,
// and (unless outPath is empty) writes the BENCH_fleet.json record the
// gate compares.
func runFleetBench(cfg experiments.Config, outPath string) error {
	res, err := experiments.FleetBench(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("== Fleet — WAL-shipped replicas, routing, admission ==\n")
	for _, r := range res.ReadThroughput {
		fmt.Printf("  %s\n", r)
	}
	fmt.Printf("  lag: %d updates, max lag %d records, converged in %.1fms (%.0f records/s)\n",
		res.Lag.Updates, res.Lag.MaxLagRecords, res.Lag.ConvergeMillis, res.Lag.AppliedPerSec)
	fmt.Printf("  admission: %d offered, %d admitted, %d shed (%.0f%% shed at ~4x overload)\n",
		res.Admission.Offered, res.Admission.Admitted, res.Admission.Shed, res.Admission.ShedRate*100)
	if outPath == "" {
		fmt.Println()
		return nil
	}
	doc := fleetDoc{
		Benchmark:      "ccpbench fleet",
		Scale:          cfg.Scale,
		Seed:           cfg.Seed,
		Meta:           experiments.CollectMeta(cfg.Seed, cfg.Scale),
		ReadThroughput: res.ReadThroughput,
		Lag:            res.Lag,
		Admission:      res.Admission,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n\n", outPath)
	return nil
}

// sweepLevels lists the measured concurrency levels: 1, 2, 4, ... and max
// itself.
func sweepLevels(max int) []int {
	levels := []int{1}
	for c := 2; c < max; c *= 2 {
		levels = append(levels, c)
	}
	if max > 1 {
		levels = append(levels, max)
	}
	return levels
}

func names() []string {
	return []string{
		"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h",
		"nettraffic", "riad", "serial", "ablations", "fig9a", "fig9b", "throughput", "contrast", "updates",
		"datalog", "store", "fleet",
	}
}

// printAll renders a slice of fmt.Stringer-ish rows.
func printAll[T fmt.Stringer](title string, rows []T) {
	fmt.Printf("== %s ==\n", title)
	for _, r := range rows {
		fmt.Printf("  %s\n", r)
	}
	fmt.Println()
}

func run(name string, cfg experiments.Config) error {
	switch name {
	case "fig8a":
		pts, err := experiments.Fig8a(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.a — elapsed time by partition size (4 partitions, 1% interconnection)", pts)
	case "fig8b":
		pts, err := experiments.Fig8b(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.b — elapsed time by number of partitions", pts)
	case "fig8c":
		pts, err := experiments.Fig8c(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.c — elapsed time by interconnection rate (%)", pts)
	case "fig8d":
		pts, err := experiments.Fig8d(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.d — elapsed time by number of cores (Italian graph)", pts)
	case "fig8e":
		pts, err := experiments.Fig8e(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.e — elapsed time by number of nodes (Italian graph)", pts)
	case "fig8f":
		pts, err := experiments.Fig8f(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.f — elapsed time by number of edges and out-degree", pts)
	case "fig8g":
		pts, err := experiments.Fig8g(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.g — speedup of distributed over centralized (T_C/T_D)", pts)
	case "fig8h":
		pts, err := experiments.Fig8h(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 8.h — speedup of pre-caching over live evaluation", pts)
	case "nettraffic":
		rows, err := experiments.NetworkTraffic(cfg)
		if err != nil {
			return err
		}
		printAll("Network traffic — 4 sites, 0.1% interconnection", rows)
	case "riad":
		r, err := experiments.RIAD(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("== RIAD — parallel runtime and speedup over serial baseline ==\n  %s\n\n", r)
	case "serial":
		rows, err := experiments.SerialSpeedup(cfg)
		if err != nil {
			return err
		}
		printAll("Serial baseline — parallel vs naive fixpoint by density", rows)
	case "ablations":
		rows, err := experiments.Ablations(cfg)
		if err != nil {
			return err
		}
		printAll("Ablations — algorithm variants on the Italian graph", rows)
	case "fig9a":
		pts, err := experiments.Fig9a(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 9.a — path enumeration (Neo4j substitute) by nodes", pts)
	case "fig9b":
		pts, err := experiments.Fig9b(cfg)
		if err != nil {
			return err
		}
		printAll("Figure 9.b — path enumeration (Neo4j substitute) by edges and degree", pts)
	case "contrast":
		rows, err := experiments.Contrast(cfg)
		if err != nil {
			return err
		}
		printAll("Contrast — distributed reachability vs distributed control (Section IX)", rows)
	case "updates":
		r, err := experiments.UpdateLatency(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("== Update latency — cached cluster around one stake update ==\n  %s\n\n", r)
	case "throughput":
		r, err := experiments.Throughput(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("== Throughput — pre-cached cluster, production configuration ==\n  %s\n\n", r)
	case "datalog":
		// main dispatches "datalog" to runDatalogBench so the -datalog-out
		// file gets written; this print-only path keeps run() total over
		// names() for direct callers.
		return runDatalogBench(cfg, "")
	case "store":
		// Same arrangement as datalog: main routes "store" through
		// runStoreBench with -store-out; this path just prints.
		return runStoreBench(cfg, "")
	case "fleet":
		return runFleetBench(cfg, "")
	default:
		return fmt.Errorf("unknown experiment (want one of %v)", names())
	}
	return nil
}
