package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"ccp/internal/dist"
	"ccp/internal/fleet"
	"ccp/internal/obs"
	"ccp/internal/partition"
	"ccp/internal/store"
)

// deployConfig selects how a workload's cluster is built.
type deployConfig struct {
	clients int  // load goroutines, also the coordinator's Concurrency
	gate    bool // admission gate with MaxInFlight = clients
	durable bool // WAL-backed leaders, each with one WAL-shipped follower
	walDir  string
}

// cluster is one serving stack: four sites behind dist.Server on loopback
// TCP, reached through dist.RemoteClient (or, when durable, through a
// fleet.ReplicaSet of leader and follower), and one dist.Coordinator with
// caches on and partials precomputed. Every process role gets its own
// always-on observer, as the ccpd and ccpcoord binaries wire them, so
// telemetry costs what it costs in production.
type cluster struct {
	obs *obs.Observer // the coordinator process's

	coord     *dist.Coordinator
	sites     []*dist.Site // leaders, by partition id
	servers   []*dist.Server
	remotes   []*dist.RemoteClient
	followers []*fleet.Follower
	closed    bool
}

// deploy builds and precomputes a cluster over a fresh split of g.
func deploy(ctx context.Context, w *workload, cfg deployConfig) (c *cluster, err error) {
	pi, err := partition.ByContiguous(w.g, numSites)
	if err != nil {
		return nil, err
	}
	c = &cluster{obs: obs.NewObserver(obs.ObserverConfig{Process: "coord"})}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	var clients []dist.SiteClient
	for i, p := range pi.Parts {
		site := dist.NewSite(p, 1)
		if cfg.durable {
			// Production store settings: fsync on every commit, default
			// checkpoint triggers.
			if site, err = dist.OpenDurableSite(filepath.Join(cfg.walDir, fmt.Sprintf("site%d", i)),
				func() (*partition.Partition, error) { return p, nil }, 1, store.Options{}); err != nil {
				return c, err
			}
		}
		c.sites = append(c.sites, site)
		addr, err := c.serve(site, fmt.Sprintf("site-%d", i))
		if err != nil {
			return c, err
		}
		leader, err := c.dial(ctx, addr)
		if err != nil {
			return c, err
		}
		if !cfg.durable {
			clients = append(clients, &clientTap{SiteClient: leader, layer: layerClient})
			continue
		}
		f, err := fleet.StartFollower(ctx, addr, fleet.FollowerConfig{Listen: "127.0.0.1:0", Workers: 1,
			Observer: obs.NewObserver(obs.ObserverConfig{Process: fmt.Sprintf("replica-%d", i)})})
		if err != nil {
			return c, err
		}
		c.followers = append(c.followers, f)
		follower, err := c.dial(ctx, f.Addr())
		if err != nil {
			return c, err
		}
		rs := fleet.NewReplicaSet(&clientTap{SiteClient: leader, layer: layerClient},
			[]dist.SiteClient{&clientTap{SiteClient: follower, layer: layerClient, member: 1}},
			fleet.ReplicaSetConfig{Observer: c.obs})
		clients = append(clients, &clientTap{SiteClient: rs, layer: layerRoute})
	}
	opts := dist.Options{UseCache: true, Workers: 1, Concurrency: cfg.clients, Observer: c.obs}
	if cfg.gate {
		opts.AdmissionGate = &gateTap{inner: fleet.NewGate(fleet.GateConfig{MaxInFlight: cfg.clients, Observer: c.obs})}
	}
	c.coord = dist.NewCoordinator(clients, opts)
	if err := c.coord.PrecomputeAll(ctx); err != nil {
		return c, err
	}
	for i, f := range c.followers {
		if err := f.WaitForSeq(ctx, c.sites[i].LeaderSeq()); err != nil {
			return c, err
		}
	}
	return c, nil
}

func (c *cluster) serve(site *dist.Site, process string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := dist.NewServer(site, dist.ServerConfig{})
	srv.Observe(obs.NewObserver(obs.ObserverConfig{Process: process}))
	c.servers = append(c.servers, srv)
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

func (c *cluster) dial(ctx context.Context, addr string) (*dist.RemoteClient, error) {
	rc, err := dist.DialConfig(ctx, addr, dist.ClientConfig{Observer: c.obs})
	if err == nil {
		c.remotes = append(c.remotes, rc)
	}
	return rc, err
}

// storeDelta is the change of the leaders' durable-store counters over
// some stretch of a run.
type storeDelta struct{ fsyncs, walBytes, checkpoints float64 }

func delta(a, b store.Stats) storeDelta {
	return storeDelta{
		fsyncs:      float64(b.Fsyncs - a.Fsyncs),
		walBytes:    float64(b.WALBytes - a.WALBytes),
		checkpoints: float64(b.Checkpoints - a.Checkpoints),
	}
}

func (d *storeDelta) add(o storeDelta) {
	d.fsyncs += o.fsyncs
	d.walBytes += o.walBytes
	d.checkpoints += o.checkpoints
}

// storeStats sums the leaders' durable-store counters.
func (c *cluster) storeStats() store.Stats {
	var sum store.Stats
	for _, s := range c.sites {
		st, ok := s.StoreStats()
		if !ok {
			continue
		}
		sum.Fsyncs += st.Fsyncs
		sum.Appends += st.Appends
		sum.WALBytes += st.WALBytes
		sum.Checkpoints += st.Checkpoints
	}
	return sum
}

// close stops every client, follower, server and store the cluster
// started, and waits for each to end. Closing twice is a no-op.
func (c *cluster) close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var errs []error
	for _, rc := range c.remotes {
		errs = append(errs, rc.Close())
	}
	for _, f := range c.followers {
		errs = append(errs, f.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range c.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	for _, s := range c.sites {
		errs = append(errs, s.CloseStore())
	}
	return errors.Join(errs...)
}

// newWALDir makes a fresh directory for the durable stores under the
// build directory of the checkout the benchmark runs in.
func newWALDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "wal-")
}
