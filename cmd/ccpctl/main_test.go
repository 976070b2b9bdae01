package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ccp"
)

func TestSaveLoadGraphFormats(t *testing.T) {
	g := ccp.GenerateRandom(50, 100, 3)
	dir := t.TempDir()
	for _, name := range []string{"g.ccpg", "g.csv"} {
		path := filepath.Join(dir, name)
		if err := saveGraph(g, path); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		h, err := loadGraph(path)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if h.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: edges %d vs %d", name, h.NumEdges(), g.NumEdges())
		}
	}
	if _, err := loadGraph(filepath.Join(dir, "missing.ccpg")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCommandsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.ccpg")
	if err := cmdGen([]string{"-type", "scalefree", "-nodes", "500", "-degree", "2", "-out", gpath}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(gpath); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-in", gpath},
		{"-in", gpath, "-v"},
	} {
		if err := cmdStats(args); err != nil {
			t.Fatalf("stats %v: %v", args, err)
		}
	}
	for _, solver := range []string{"cbe", "reduce", "datalog", "pathenum"} {
		if err := cmdQuery([]string{"-in", gpath, "-s", "0", "-t", "7", "-solver", solver}); err != nil {
			t.Fatalf("query %s: %v", solver, err)
		}
	}
	if err := cmdOwned([]string{"-in", gpath, "-s", "0"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExplain([]string{"-in", gpath, "-s", "0", "-t", "7"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGroups([]string{"-in", gpath, "-top", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDatalog([]string{"-in", gpath, "-s", "0"}); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "part")
	if err := cmdSplit([]string{"-in", gpath, "-parts", "2", "-outprefix", prefix}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(prefix + string('0'+byte(i)) + ".ccpp"); err != nil {
			t.Fatal(err)
		}
	}
	// Error paths.
	if err := cmdGen([]string{"-type", "zap", "-out", gpath}); err == nil {
		t.Fatal("bad type accepted")
	}
	if err := cmdQuery([]string{"-in", gpath, "-s", "0", "-t", "1", "-solver", "zap"}); err == nil {
		t.Fatal("bad solver accepted")
	}
	if err := cmdStats([]string{}); err == nil {
		t.Fatal("missing -in accepted")
	}
}

// TestRollupSpansCountsEachSiteOnce feeds the per-site summary a stitched
// trace built by hand: each site's spans nest inside its site.rpc envelope,
// so a site's busy time is the envelope alone, and the coordinator's is the
// sum of its own spans.
func TestRollupSpansCountsEachSiteOnce(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []ccp.TraceSpan{
		{Name: "site.rpc", Site: 0, StartNS: 0, DurNS: 10 * ms, Bytes: 400},
		{Name: "site.snapshot", Site: 0, StartNS: 1 * ms, DurNS: 3 * ms},
		{Name: "site.reduce", Site: 0, StartNS: 4 * ms, DurNS: 6 * ms},
		{Name: "site.rpc", Site: 1, StartNS: 0, DurNS: 4 * ms, Bytes: 100},
		{Name: "site.cache", Site: 1, StartNS: 1 * ms, DurNS: 1 * ms},
		{Name: "coord.merge", Site: -1, StartNS: 11 * ms, DurNS: 2 * ms},
		{Name: "coord.reduce", Site: -1, StartNS: 13 * ms, DurNS: 1 * ms},
	}
	got := rollupSpans(spans)
	want := []spanRollup{
		{site: 0, spans: 3, busy: 10 * time.Millisecond, bytes: 400},
		{site: 1, spans: 2, busy: 4 * time.Millisecond, bytes: 100},
		{site: -1, spans: 2, busy: 3 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rollup:\n got %+v\nwant %+v", got, want)
	}
}
