package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomGraph builds a valid random ownership graph for round-trip tests.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	g := New(n)
	budget := make([]float64, n)
	for i := range budget {
		budget[i] = 1
	}
	for i := 0; i < m; i++ {
		if i == m/2 {
			// The first half of the edges lands in a bulk-built base, the
			// rest in the overlay, so every test covers both.
			g.compact()
		}
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		w := rng.Float64() * budget[v]
		if w <= 0.001 {
			continue
		}
		if err := g.AddEdge(u, v, w); err == nil {
			budget[v] -= w
		}
	}
	// Punch some holes so dead ids round-trip too.
	for i := 0; i < n/10; i++ {
		g.RemoveNode(NodeID(rng.Intn(n)))
	}
	return g
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 2+rng.Intn(60), rng.Intn(150))
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if !Equal(g, h, 0) {
			t.Fatalf("trial %d: binary round-trip changed the graph", trial)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("not a graph at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated payload after a valid magic.
	var buf bytes.Buffer
	g := New(3)
	if err := g.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input accepted")
	}
}

// TestBinaryDuplicateLiveIDs pins the CCPG1 payload that once made the
// stream and in-memory decoders disagree: capacity 4, a live count of 2 that
// names id 1 twice, and no edges. Both entry points must count one live
// node, and the result must re-encode into a payload that decodes again.
func TestBinaryDuplicateLiveIDs(t *testing.T) {
	payload := []byte(binaryMagic)
	for _, x := range []uint32{4, 2, 1, 1, 0} {
		payload = binary.LittleEndian.AppendUint32(payload, x)
	}
	fromStream, err := ReadBinary(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	fromBytes, err := DecodeBinary(payload)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"ReadBinary": fromStream, "DecodeBinary": fromBytes} {
		if g.NumNodes() != 1 || !g.Alive(1) {
			t.Fatalf("%s: %d live nodes, want exactly node 1", name, g.NumNodes())
		}
	}
	if !Equal(fromStream, fromBytes, 0) {
		t.Fatal("ReadBinary and DecodeBinary disagree on the same payload")
	}
	var buf bytes.Buffer
	if err := fromStream.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("re-encoded graph does not decode: %v", err)
	}
	if !Equal(fromStream, again, 0) {
		t.Fatal("re-encoding changed the graph")
	}
}

// TestBinaryCapacityBounds: the decoder refuses a capacity past the NodeID
// range, but not a sparse payload that declares far more ids than it carries
// (a reduced partial keeps the global id space), however short it is.
func TestBinaryCapacityBounds(t *testing.T) {
	payload := func(capacity uint32, live ...uint32) []byte {
		p := []byte(binaryMagic)
		p = binary.LittleEndian.AppendUint32(p, capacity)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(live)))
		for _, id := range live {
			p = binary.LittleEndian.AppendUint32(p, id)
		}
		return binary.LittleEndian.AppendUint32(p, 0)
	}
	huge := payload(math.MaxInt32 + 1)
	if _, err := DecodeBinary(huge); err == nil {
		t.Fatal("DecodeBinary accepted a capacity past the NodeID range")
	}
	if _, err := ReadBinary(bytes.NewReader(huge)); err == nil {
		t.Fatal("ReadBinary accepted a capacity past the NodeID range")
	}
	const sparse = 1<<20 + 1
	g, err := DecodeBinary(payload(sparse, sparse-1))
	if err != nil {
		t.Fatalf("sparse %d-id payload rejected: %v", sparse, err)
	}
	if g.Cap() != sparse || g.NumNodes() != 1 || !g.Alive(sparse-1) {
		t.Fatalf("sparse payload decoded to cap=%d nodes=%d", g.Cap(), g.NumNodes())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g := New(5)
	for _, e := range []Edge{{0, 1, 0.6}, {1, 2, 0.25}, {3, 2, 0.5}} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	// Node 4 is isolated and must survive the round trip.
	var buf bytes.Buffer
	if err := g.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 3 {
		t.Fatalf("edges = %d", h.NumEdges())
	}
	if w, ok := h.Label(0, 1); !ok || w != 0.6 {
		t.Fatalf("label(0,1) = %g,%v", w, ok)
	}
	if !h.Alive(4) {
		t.Fatal("isolated node lost")
	}
}

func TestCSVParsing(t *testing.T) {
	in := `# ownership
0,1,0.6

1,2,0.3
0,1,0.2
`
	g, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Parallel edges merge.
	if w, _ := g.Label(0, 1); w != 0.8 {
		t.Fatalf("merged label = %g", w)
	}
	bad := []string{
		"0,1",           // too few fields
		"a,1,0.5",       // bad source
		"0,b,0.5",       // bad target
		"0,1,zap",       // bad weight
		"0,1,1.5",       // label out of range
		"1,1,0.5",       // self loop
		"0,1,0.5,extra", // too many fields
	}
	for _, s := range bad {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("ReadCSV(%q) accepted", s)
		}
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := New(4)
	for _, e := range []Edge{{2, 0, 0.1}, {0, 3, 0.2}, {0, 1, 0.3}, {1, 2, 0.4}} {
		if err := g.AddEdge(e.From, e.To, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	es := g.Edges()
	for i := 1; i < len(es); i++ {
		if es[i-1].From > es[i].From ||
			(es[i-1].From == es[i].From && es[i-1].To >= es[i].To) {
			t.Fatalf("edges out of order: %v", es)
		}
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1, 0.3}, {0, 1, 0.3}, {1, 2, 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.Label(0, 1); w != 0.6 {
		t.Fatalf("merged = %g", w)
	}
	if _, err := FromEdges(2, []Edge{{0, 5, 0.3}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

// TestQuickBinaryRoundTrip drives the binary codec with random graphs.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8, m uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+int(n%64), int(m%256))
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			return false
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return Equal(g, h, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
