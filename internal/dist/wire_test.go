package dist

import (
	"context"
	"encoding/gob"
	"net"
	"strings"
	"testing"
	"time"

	"ccp/internal/control"
	"ccp/internal/graph"
	"ccp/internal/partition"
)

func testSite(t *testing.T) *Site {
	t.Helper()
	g := graph.New(4)
	if err := g.AddEdge(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	pi, err := partition.ByHash(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	return NewSite(pi.Parts[0], 1)
}

func startServer(t *testing.T, site *Site) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go Serve(context.Background(), l, site)
	return l.Addr().String()
}

func TestServeUnknownOp(t *testing.T) {
	addr := startServer(t, testSite(t))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(&request{Op: 99}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" || !strings.Contains(resp.Err, "unknown op") {
		t.Fatalf("resp = %+v", resp)
	}
	// The connection stays usable after a bad request. (Fresh struct: gob
	// does not reset zero-valued fields on decode.)
	if err := enc.Encode(&request{Op: opInfo}); err != nil {
		t.Fatal(err)
	}
	var resp2 response
	if err := dec.Decode(&resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Err != "" {
		t.Fatalf("info after bad op: %+v", resp2)
	}
}

func TestServeSurvivesGarbage(t *testing.T) {
	addr := startServer(t, testSite(t))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage bytes: gob reads them as a bogus length prefix; the server
	// goroutine must not crash the listener. Close and move on.
	if _, err := conn.Write([]byte("this is not gob at all, not even close")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// The server still accepts and serves well-formed clients.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := Dial(context.Background(), addr)
		if err == nil {
			defer c.Close()
			if c.SiteID() != 0 {
				t.Fatalf("site id = %d", c.SiteID())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server unreachable after garbage: %v", err)
		}
	}
}

func TestRemoteSiteErrorPropagates(t *testing.T) {
	addr := startServer(t, testSite(t))
	c, err := Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A self stake is rejected at the site; the error must travel back.
	if _, err := c.Update(context.Background(), StakeUpdate{Owner: 0, Owned: 0, Weight: 0.2}); err == nil {
		t.Fatal("remote site error lost")
	}
	// The client survives and can still evaluate.
	pa, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Ans != control.True {
		t.Fatalf("answer = %v", pa.Ans)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial(context.Background(), "127.0.0.1:1"); err == nil {
		t.Fatal("dialing a closed port succeeded")
	}
}

func TestClientAfterServerGone(t *testing.T) {
	site := testSite(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go Serve(context.Background(), l, site)
	c, err := Dial(context.Background(), l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l.Close()
	// Kill the live connection. The client redials rather than going
	// sticky, but with the listener gone every redial is refused, so the
	// call must fail with a transport error instead of hanging. (Recovery
	// after redial against a live server is covered in fault_test.go.)
	c.mu.Lock()
	mc := c.conn
	c.mu.Unlock()
	if mc == nil {
		t.Fatal("no live connection after dial")
	}
	mc.conn.Close()
	if _, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 1}, EvalOptions{}); err == nil {
		t.Fatal("evaluate with the server gone succeeded")
	}
}

func TestLocalClientWithoutByteMeasuring(t *testing.T) {
	site := testSite(t)
	lc := &LocalClient{Site: site} // MeasureBytes off
	pa, n, err := lc.Evaluate(context.Background(), control.Query{S: 2, T: 3}, EvalOptions{ForcePartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("bytes = %d without measuring", n)
	}
	if pa.Reduced == nil {
		t.Fatal("forced partial missing")
	}
	if lc.SiteID() != 0 {
		t.Fatalf("site id = %d", lc.SiteID())
	}
}

// TestSparsePartialDecodesOverTCP: a site's graph takes its capacity from the
// largest global id it references, and its reduced partials keep that
// capacity while carrying only a few live nodes. Such a partial, from an id
// space past 2^20, must decode at the client on both the pooled live path
// and the cached path.
func TestSparsePartialDecodesOverTCP(t *testing.T) {
	const far = graph.NodeID(1<<20 + 1)
	// One site holding every node, built directly so that the id space is
	// allocated once.
	g := graph.New(int(far) + 1)
	for v := graph.NodeID(0); v < far; v++ {
		if v != 0 && v != 2 {
			g.RemoveNode(v)
		}
	}
	for _, e := range []graph.Edge{{From: 0, To: far, Weight: 0.6}, {From: far, To: 2, Weight: 0.6}} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	part := &partition.Partition{
		Local:   g,
		Members: graph.NewNodeSet(0, 2, far),
		Virtual: graph.NewNodeSet(),
		InNodes: graph.NewNodeSet(),
		CrossIn: map[graph.NodeID]int{},
	}
	c, err := Dial(context.Background(), startServer(t, NewSite(part, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	live, _, err := c.Evaluate(context.Background(), control.Query{S: 0, T: 2}, EvalOptions{ForcePartial: true})
	if err != nil {
		t.Fatalf("live partial: %v", err)
	}
	if live.Reduced == nil || live.Reduced.Cap() <= int(far) || live.Reduced.NumNodes() > 3 {
		t.Fatalf("live partial is not a sparse graph over the far id: %+v", live)
	}
	live.Release()
	// Ids 1 and 3 are not held here, so the site answers from its cache.
	cached, _, err := c.Evaluate(context.Background(), control.Query{S: 1, T: 3}, EvalOptions{UseCache: true})
	if err != nil {
		t.Fatalf("cached partial: %v", err)
	}
	if !cached.FromCache || cached.Reduced == nil || cached.Reduced.Cap() <= int(far) {
		t.Fatalf("cached partial is not a graph over the far id: %+v", cached)
	}
}
