// Command ctlbench is the benchmark for distributed control queries. It
// runs one workload against the real serving stack in one process: four
// sites behind dist.Server on loopback TCP, reached through
// dist.RemoteClient, with a dist.Coordinator that has caches on and
// partials precomputed. Every answer is checked against control.CBE on a
// reference copy of the global graph.
//
//	ctlbench --workload xborder|churn|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer metrics, timed from outside the program (see trace.go and
// replay.go). --workload all runs every workload both ways. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics. A wrong answer makes the exit code nonzero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// buildDir holds everything a run writes: the binary and the WAL
// directories of durable sites.
const buildDir = ".bench_build"

// spec defines one workload.
type spec struct {
	name    string
	gate    bool
	durable bool
	// queryTail is the percentile reported as the query tail, lowered
	// when fewer than ten samples would lie beyond it.
	queryTail float64
	// shares is how many times a run builds the workload and a fresh
	// cluster, each measured for an equal share of the run.
	shares int
}

// clients is the number of load goroutines. With two, the load and the
// sites keep both cores of a 2-core host busy, and the figures follow
// whatever else the host runs: over five alternating runs xborder's median
// latency moved by 65% with two clients and by 26% with one (BENCHMARK.md).
const clients = 1

var specs = []spec{
	{name: "xborder", gate: true, queryTail: 0.98, shares: 3},
	{name: "churn", durable: true, queryTail: 0.95, shares: 3},
}

// updateTail is the percentile reported as the tail of update latency and
// follower lag.
const updateTail = 0.95

// setupsPerShare is how many times each share deploys a cluster; setup_s
// is the median over a run's deployments.
const setupsPerShare = 5

// warmupFor is how long the load runs before measuring.
const warmupFor = time.Second

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "xborder, churn or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var todo []spec
	for _, sp := range specs {
		if *name == sp.name || *name == "all" {
			todo = append(todo, sp)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "ctlbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	modes := []bool{*traced == 1}
	if *name == "all" {
		modes = []bool{false, true}
	}
	total := result{Correct: true, Metrics: metrics{}}
	for _, sp := range todo {
		for _, tr := range modes {
			res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ctlbench: %s: %v\n", sp.name, err)
				os.Exit(1)
			}
			printMetrics(sp.name, tr, res)
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, v := range res.Metrics {
				if len(todo) > 1 {
					k = sp.name + "/" + k
				}
				total.Metrics[k] = v
			}
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ctlbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !total.Correct {
		os.Exit(1)
	}
}

func printMetrics(name string, traced bool, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	mode := "end-to-end"
	if traced {
		mode = "per-layer"
	}
	fmt.Printf("# %s %s: attempted=%d failed=%d failed_frac=%.6f correct=%v\n",
		name, mode, res.Attempted, res.Failed, frac(float64(res.Failed), float64(res.Attempted)), res.Correct)
	for _, k := range keys {
		fmt.Printf("#   %-38s %14.6f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// run measures one workload. It builds the workload and a fresh cluster
// several times (setup_s is the median deploy time), and measures each
// deployment for an equal share of d: pooling independent deployments
// averages out what one deployment's memory layout and scheduling happen
// to favour.
func run(sp spec, seed int64, d time.Duration, traced bool) (result, error) {
	var all []*share
	cur := &cursor{}
	for i := 0; i < sp.shares; i++ {
		sh, err := measureShare(sp, seed, d/time.Duration(sp.shares), traced, cur)
		if err != nil {
			return result{}, err
		}
		if len(all) > 0 && sh.digest != all[0].digest {
			return result{}, fmt.Errorf("two generations from seed %d differ: %s, %s", seed, all[0].digest, sh.digest)
		}
		all = append(all, sh)
	}
	printProvenance(sp, seed, d, traced, all[0].digest, all[0].sel)

	var (
		plain, window     []rec
		took              time.Duration
		setupS, heap, lag []float64
		samples           replaySamples
		st                storeDelta
		wrong             []string
	)
	for _, sh := range all {
		plain = append(plain, sh.plain...)
		window = append(window, sh.window...)
		took += sh.took
		setupS = append(setupS, sh.setups...)
		heap = append(heap, sh.heapMB)
		lag = append(lag, sh.lag...)
		samples.add(&sh.samples)
		st.add(sh.store)
		wrong = append(wrong, sh.wrong...)
	}
	var m metrics
	if !traced {
		m = endToEnd(sp, took.Seconds(), plain)
		m.set("setup_s", median(setupS), "s")
		m.set("heap_mb", median(heap), "MB")
	} else {
		m = perLayer(plain, window, &samples, lag, st)
	}
	recs := append(plain, window...)
	failed := failures(recs)
	for i, msg := range wrong {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "ctlbench: %s: ... %d wrong answers in all\n", sp.name, len(wrong))
			break
		}
		fmt.Fprintf(os.Stderr, "ctlbench: %s: wrong answer: %s\n", sp.name, msg)
	}
	return result{Correct: len(wrong) == 0, Attempted: len(recs), Failed: failed, Metrics: m}, nil
}

// share is what one deployment measured.
type share struct {
	setups []float64 // seconds from deploy to a precomputed cluster
	heapMB float64   // live heap the cluster holds after warm-up
	digest string    // fingerprint of the generated inputs
	sel    selection // how the read pairs were selected

	// plain is the untraced window (in the traced run, its first half:
	// the baseline of the tracing overhead); window the traced half.
	plain, window []rec
	took          time.Duration // length of the untraced window

	samples replaySamples // traced: the replay's samples
	lag     []float64     // traced churn: follower lag samples, ns
	store   storeDelta    // traced churn: store counters over the window
	wrong   []string
}

// cursor carries a run's place in the query order and the step sequence
// from one deployment to the next, so the shares continue the workload
// instead of repeating its start.
type cursor struct{ read, step int }

// measureShare sets up one deployment, warms it up and measures it for d.
func measureShare(sp spec, seed int64, d time.Duration, traced bool, cur *cursor) (*share, error) {
	ctx := context.Background()
	sh := &share{}
	w, err := newWorkload(sp.name, seed)
	if err != nil {
		return nil, err
	}
	sh.digest = w.digest()
	sh.sel = w.sel
	// The benchmark's own state (the oracle's graph, the inputs, earlier
	// shares' records) is live from here on; heap_mb counts what the
	// serving stack adds to it.
	base := liveHeap()
	// setup_s times the program's part of set-up alone, from deploy to a
	// precomputed cluster with followers caught up. The share deploys
	// several times and serves the last deployment.
	var c *cluster
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	for i := 0; i < setupsPerShare; i++ {
		if c != nil {
			if err := c.close(); err != nil {
				return nil, err
			}
			c = nil
		}
		var walDir string
		if sp.durable {
			if walDir, err = newWALDir(); err != nil {
				return nil, err
			}
			defer os.RemoveAll(walDir)
		}
		runtime.GC()
		t0 := time.Now()
		if c, err = deploy(ctx, w, deployConfig{clients: clients, gate: sp.gate, durable: sp.durable, walDir: walDir}); err != nil {
			return nil, err
		}
		sh.setups = append(sh.setups, time.Since(t0).Seconds())
	}

	r := newRunner(w, c, cur)
	r.warmup(sp)
	sh.heapMB = float64(liveHeap()-base) / 1e6

	if !traced {
		sh.plain, sh.took = r.measure(sp, d)
	} else {
		// The first half runs untraced, as the baseline of the tracing
		// overhead; the second half is traced and replayed.
		sh.plain, sh.took = r.measure(sp, d/2)
		if r.rp, err = newReplayer(ctx, w.g, clients); err == nil {
			err = r.rp.prime(ctx)
		}
		if err != nil {
			return nil, err
		}
		st0 := c.storeStats()
		sh.window, _ = r.measure(sp, d-d/2)
		r.lagWG.Wait()
		sh.store = delta(st0, c.storeStats())
		sh.samples = r.rp.samples()
		sh.lag = r.lagNS
	}
	sh.wrong = r.wrong
	return sh, c.close()
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return int64(mem.HeapAlloc)
}

// measure runs the workload's load for d, traced when the runner has a
// replayer, and returns its records and how long it took.
func (r *runner) measure(sp spec, d time.Duration) ([]rec, time.Duration) {
	var took time.Duration
	if sp.name == "churn" {
		took = r.churnWindow(d)
	} else {
		took = r.readWindow(d)
	}
	return r.take(), took
}

// warmup fills every cache the measured load relies on: each distinct pool
// query runs once, then the read load (for churn, one add/remove pair and
// its queries) runs unmeasured.
func (r *runner) warmup(sp spec) {
	seen := make(map[pair]bool)
	for _, p := range r.w.pool {
		if !seen[p] {
			seen[p] = true
			r.query(0, p, kindQuery)
		}
	}
	if sp.name == "churn" {
		// One add/remove pair, so the WAL and follower paths are warm too.
		r.step(r.w.steps[0])
		r.step(r.w.steps[1])
	} else {
		r.readWindow(warmupFor)
	}
	r.take()
}
