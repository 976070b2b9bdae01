package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// provenance records what produced a result.
type provenance struct {
	Workload     string         `json:"workload"`
	Mode         string         `json:"mode"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	GitRevision  string         `json:"git_revision"`
	SourceDigest string         `json:"source_digest"`
	GoVersion    string         `json:"go_version"`
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	Fsync        string         `json:"fsync"`
	Inputs       string         `json:"inputs_digest"`
	Params       map[string]any `json:"params"`
}

func printProvenance(sp spec, seed int64, d time.Duration, traced bool, inputs string, sel selection) {
	p := provenance{
		Workload:     sp.name,
		Mode:         "end-to-end",
		Seed:         seed,
		Seconds:      d.Seconds(),
		GitRevision:  gitRevision(),
		SourceDigest: sourceDigest(),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Fsync:        "none: in-memory sites",
		Inputs:       inputs,
		Params: map[string]any{
			"countries": countries, "nodes_per_country": nodesPerCountry,
			"interconnect": interconnect, "avg_out_degree": avgOutDegree,
			"sites": numSites, "partitioning": "contiguous",
			"clients": clients, "query_tail": sp.queryTail, "update_tail": updateTail,
			"shares": sp.shares, "setups": sp.shares * setupsPerShare, "warmup_s": warmupFor.Seconds(), "site_workers": 1,
			"merge_pairs": sel,
		},
	}
	if traced {
		p.Mode = "per-layer"
	}
	switch sp.name {
	case "xborder":
		p.Params["loop"] = "closed"
		p.Params["gate_max_inflight"] = clients
	case "churn":
		p.Params["loop"] = "closed"
		p.Params["queries_per_update"] = churnK
		p.Params["updates_in_cycle"] = 2 * churnPairs
		p.Params["followers_per_site"] = 1
		p.Fsync = "on: every WAL commit is fsynced (group commit) before the update is acknowledged"
	}
	b, _ := json.Marshal(p)
	fmt.Printf("# provenance %s\n", b)
}

// gitRevision reads the checked-out commit from .git in the working
// directory, without running git; "none" outside a git checkout.
func gitRevision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
				return rev
			}
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the Go sources and module files under the
// working directory, skipping hidden directories: it identifies the code
// measured even where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
