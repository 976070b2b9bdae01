package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"ccp/internal/dist"
	"ccp/internal/gen"
	"ccp/internal/graph"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// StoreRecoveryRow is one recovery measurement: reopening a store whose WAL
// tail holds Tail records and replaying them into a fresh partition.
type StoreRecoveryRow struct {
	Tail          int     `json:"tail"`
	Millis        float64 `json:"ms"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

func (r StoreRecoveryRow) String() string {
	return fmt.Sprintf("tail=%-6d recover=%8.2fms  %10.0f records/s", r.Tail, r.Millis, r.RecordsPerSec)
}

// StoreBenchResult measures the durable site store: raw WAL append
// throughput (buffered, and with fsync-per-group-commit), recovery time as
// a function of WAL tail length, and the cost of serving queries from MVCC
// snapshots while updates stream in, relative to a store-less in-memory
// site.
type StoreBenchResult struct {
	WAL struct {
		// AppendsPerSecNoSync is sequential append throughput with fsync
		// off — the codec + buffering ceiling, machine-independent enough
		// to gate.
		AppendsPerSecNoSync float64 `json:"appends_per_sec_nosync"`
		// AppendsPerSecSync is concurrent append throughput with fsync on:
		// group commit amortizes each fsync over every append that
		// rendezvoused behind it. Device-dependent, reported for context.
		AppendsPerSecSync float64 `json:"appends_per_sec_sync"`
		// GroupCommitBatch is appends per fsync in the sync run; > 1 means
		// the rendezvous actually batched.
		GroupCommitBatch float64 `json:"group_commit_batch"`
	} `json:"wal"`
	Recovery []StoreRecoveryRow `json:"recovery"`
	Snapshot struct {
		// MemoryQPS / DurableQPS are queries per second against a site
		// evaluated concurrently with a stream of updates, without and
		// with a WAL-backed store underneath.
		MemoryQPS  float64 `json:"memory_qps"`
		DurableQPS float64 `json:"durable_qps"`
		// Ratio is DurableQPS / MemoryQPS — near 1.0 when WAL commits and
		// snapshot clones stay off the read path.
		Ratio float64 `json:"durable_over_memory"`
	} `json:"snapshot"`
}

// storeBenchRecord builds the i-th synthetic stake record: owners in the
// first half of the id space (partition 0 of a 2-way contiguous split),
// owned anywhere.
func storeBenchRecord(rng *rand.Rand, nodes int) store.Record {
	owner := rng.Intn(nodes / 2)
	owned := rng.Intn(nodes)
	for owned == owner {
		owned = rng.Intn(nodes)
	}
	return store.Record{
		Kind:   store.KindStake,
		Owner:  int32(owner),
		Owned:  int32(owned),
		Weight: 0.01 + 0.2*rng.Float64(),
	}
}

// bestOf runs fn repeats times and returns the fastest run. Throughput
// microbenchmarks on shared machines see one-sided noise (CPU steal,
// writeback stalls) that only ever adds time, so the minimum tracks the
// code where the mean tracks the neighbors.
func bestOf(repeats int, fn func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// StoreBench runs the durable-store experiment. All stores live under
// throwaway temp directories.
func StoreBench(cfg Config) (*StoreBenchResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &StoreBenchResult{}
	nodes := cfg.scaled(4000)

	// --- WAL append throughput, fsync off: sequential, buffered.
	{
		dir, err := os.MkdirTemp("", "ccpbench-store-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			return nil, err
		}
		// Warm up the allocator and the segment file before timing.
		for i := 0; i < cfg.scaled(5_000); i++ {
			if _, err := st.Append(storeBenchRecord(rng, nodes)); err != nil {
				return nil, err
			}
		}
		n := cfg.scaled(100_000)
		elapsed := bestOf(cfg.Repeats, func() {
			for i := 0; i < n; i++ {
				if _, err := st.Append(storeBenchRecord(rng, nodes)); err != nil {
					panic(err)
				}
			}
		})
		st.Close()
		res.WAL.AppendsPerSecNoSync = float64(n) / elapsed.Seconds()
	}

	// --- WAL append throughput, fsync on: 8 writers rendezvous behind the
	// group commit, so appends/fsync measures how well the batching works.
	{
		dir, err := os.MkdirTemp("", "ccpbench-store-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return nil, err
		}
		const writers = 8
		per := cfg.scaled(400)
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(seed))
				for i := 0; i < per; i++ {
					if _, err := st.Append(storeBenchRecord(wrng, nodes)); err != nil {
						panic(err)
					}
				}
			}(cfg.Seed + int64(w))
		}
		wg.Wait()
		elapsed := time.Since(start)
		stats := st.Stats()
		st.Close()
		res.WAL.AppendsPerSecSync = float64(writers*per) / elapsed.Seconds()
		if stats.Fsyncs > 0 {
			res.WAL.GroupCommitBatch = float64(stats.Appends) / float64(stats.Fsyncs)
		}
	}

	// --- Recovery time vs tail length: write a WAL with no checkpoint,
	// close, and time open + full replay into a fresh partition.
	g := gen.Random(nodes, 3*nodes, cfg.Seed)
	pi, err := partition.ByContiguous(g, 2)
	if err != nil {
		return nil, err
	}
	for _, tail := range []int{cfg.scaled(2_000), cfg.scaled(10_000), cfg.scaled(50_000)} {
		dir, err := os.MkdirTemp("", "ccpbench-store-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			return nil, err
		}
		for i := 0; i < tail; i++ {
			if _, err := st.Append(storeBenchRecord(rng, nodes)); err != nil {
				return nil, err
			}
		}
		// Close without Start: no final checkpoint, so reopening replays
		// the whole tail — exactly the crash-recovery path.
		if err := st.Close(); err != nil {
			return nil, err
		}
		// Replay is non-destructive, so reopening is repeatable and the
		// measurement can take the best of several runs.
		var replayed int
		elapsed := bestOf(cfg.Repeats, func() {
			rst, err := store.Open(dir, store.Options{NoSync: true})
			if err != nil {
				panic(err)
			}
			p := pi.Parts[0].Snapshot()
			replayed = 0
			if err := rst.Replay(func(rec store.Record) error {
				_, err := p.ApplyStake(graph.NodeID(rec.Owner), graph.NodeID(rec.Owned), rec.Weight, rec.Remove)
				replayed++
				return err
			}); err != nil {
				panic(err)
			}
			rst.Close()
		})
		if replayed != tail {
			return nil, fmt.Errorf("experiments: recovery replayed %d of %d records", replayed, tail)
		}
		res.Recovery = append(res.Recovery, StoreRecoveryRow{
			Tail:          tail,
			Millis:        float64(elapsed.Microseconds()) / 1e3,
			RecordsPerSec: float64(tail) / elapsed.Seconds(),
		})
	}

	// --- Snapshot-pin overhead: an identical deterministic mix of updates
	// and queries against a site with and without the store underneath.
	// Every update invalidates the snapshot, so every query pays a fresh
	// snapshot clone plus (on the durable site) the WAL commits; the ratio
	// is the whole durability+MVCC tax on a churning read path. The mix is
	// interleaved on one goroutine so the comparison measures the code,
	// not the scheduler — the concurrent-readers case is covered by the
	// race tests.
	mixedQPS := func(s *dist.Site) (float64, error) {
		const updatesPerQuery = 20
		ctx := context.Background()
		queries := cfg.scaled(400)
		var best time.Duration
		for rep := 0; rep < cfg.Repeats; rep++ {
			// Endpoints come off the immutable generated graph, not the
			// site's mutating copy.
			wrng := rand.New(rand.NewSource(cfg.Seed + 99 + int64(rep)))
			qrng := rand.New(rand.NewSource(cfg.Seed + 7 + int64(rep)))
			start := time.Now()
			for i := 0; i < queries; i++ {
				for j := 0; j < updatesPerQuery; j++ {
					rec := storeBenchRecord(wrng, nodes)
					up := dist.StakeUpdate{Owner: graph.NodeID(rec.Owner), Owned: graph.NodeID(rec.Owned), Weight: rec.Weight}
					if _, err := s.ApplyEdgeUpdate(up); err != nil {
						return 0, err
					}
				}
				q := pickQuery(g, qrng)
				if _, err := s.Evaluate(ctx, q, dist.EvalOptions{ForcePartial: true}); err != nil {
					return 0, err
				}
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return float64(queries) / best.Seconds(), nil
	}
	mem := dist.NewSite(pi.Parts[0].Snapshot(), cfg.Workers)
	if res.Snapshot.MemoryQPS, err = mixedQPS(mem); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "ccpbench-store-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dur, err := dist.OpenDurableSite(dir,
		func() (*partition.Partition, error) { return pi.Parts[0].Snapshot(), nil },
		cfg.Workers, store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	if res.Snapshot.DurableQPS, err = mixedQPS(dur); err != nil {
		return nil, err
	}
	if err := dur.CloseStore(); err != nil {
		return nil, err
	}
	if res.Snapshot.MemoryQPS > 0 {
		res.Snapshot.Ratio = res.Snapshot.DurableQPS / res.Snapshot.MemoryQPS
	}
	return res, nil
}
