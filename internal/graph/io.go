package graph

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Edge is one ownership relation, used for bulk construction and wire
// transfer of (sub)graphs.
type Edge struct {
	From, To NodeID
	Weight   float64
}

// Edges returns all live edges. The order is deterministic (sorted by
// (From, To)) so that serialized forms are reproducible.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.nEdges)
	for i, ok := range g.alive {
		if !ok {
			continue
		}
		v := NodeID(i)
		start := len(es)
		g.eachOut(v, func(_ int32, u NodeID, w float64) { es = append(es, Edge{v, u, w}) })
		if g.st[v].ovOut != 0 {
			// Base rows are sorted already; overlay records are not.
			slices.SortFunc(es[start:], func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
		}
	}
	return es
}

// FromEdges builds a graph over ids 0..n-1 from an edge list, merging
// parallel edges by summing labels in list order, as repeated MergeEdge
// calls would. The graph is built in bulk.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if err := g.checkEndpoints(e.From, e.To, e.Weight); err != nil {
			return nil, err
		}
	}
	es := slices.Clone(edges)
	slices.SortStableFunc(es, func(a, b Edge) int {
		if a.From != b.From {
			return cmp.Compare(a.From, b.From)
		}
		return cmp.Compare(a.To, b.To)
	})
	merged := es[:0]
	for _, e := range es {
		if k := len(merged) - 1; k >= 0 && merged[k].From == e.From && merged[k].To == e.To {
			merged[k].Weight = clampLabel(merged[k].Weight + e.Weight)
			continue
		}
		merged = append(merged, e)
	}
	if err := g.load(len(merged), func(i int) Edge { return merged[i] }); err != nil {
		return nil, err
	}
	return g, nil
}

// binaryMagic identifies the compact binary graph format.
const binaryMagic = "CCPG1\n"

// WriteBinary serializes the graph in a compact binary format that preserves
// node ids (including dead ids, which are simply absent from the node list).
// The format is: magic, capacity, live-node count, sorted live ids, edge
// count, edges as (from, to, weight) triples.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var buf [8]byte
	writeU32 := func(x uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], x)
		_, err := bw.Write(buf[:4])
		return err
	}
	if err := writeU32(uint32(len(g.alive))); err != nil {
		return err
	}
	if err := writeU32(uint32(g.nAlive)); err != nil {
		return err
	}
	for i, ok := range g.alive {
		if !ok {
			continue
		}
		if err := writeU32(uint32(i)); err != nil {
			return err
		}
	}
	if err := writeU32(uint32(g.nEdges)); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if err := writeU32(uint32(e.From)); err != nil {
			return err
		}
		if err := writeU32(uint32(e.To)); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.Weight))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary. It reads r to the
// end and parses the bytes with DecodeBinary, so a stream and an in-memory
// payload go through the same decoder: the graph must be the last thing in
// the stream, bytes past it are ignored, and the raw bytes and the decoded
// graph are both held until it returns.
func ReadBinary(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading CCPG1 stream: %w", err)
	}
	return DecodeBinary(data)
}

// DecodeBinary parses a CCPG1 payload held wholly in memory, as produced by
// WriteBinary. It is the allocation-lean path for wire decoding: the payload
// is indexed directly, with no reader or buffered copies.
func DecodeBinary(data []byte) (*Graph, error) {
	return DecodeBinaryInto(nil, data)
}

// DecodeBinaryInto parses a CCPG1 payload into dst, reusing dst's buffers
// (and its base adjacency, when no copy shares it); a nil dst allocates a
// fresh graph. It ignores trailing bytes. The edges are built in bulk into
// the base, not inserted one by one.
// The declared id capacity sizes every per-node array before any id is read,
// and a valid payload may declare far more ids than it carries (a reduced
// partial keeps the global id space but few live nodes), so the decoder
// bounds it only by the NodeID range; a caller decoding untrusted bytes must
// bound it itself.
// On error the destination's contents are unspecified and it must not be
// returned to a pool. A pooled dst cycling through same-shaped payloads
// decodes without allocating.
func DecodeBinaryInto(dst *Graph, data []byte) (*Graph, error) {
	if len(data) < len(binaryMagic) || string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, errors.New("graph: bad magic, not a CCPG1 payload")
	}
	off := len(binaryMagic)
	u32 := func() (uint32, error) {
		if off+4 > len(data) {
			return 0, io.ErrUnexpectedEOF
		}
		x := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return x, nil
	}
	capacity, err := u32()
	if err != nil {
		return nil, err
	}
	nAlive, err := u32()
	if err != nil {
		return nil, err
	}
	if nAlive > capacity {
		return nil, fmt.Errorf("graph: live count %d exceeds capacity %d", nAlive, capacity)
	}
	if capacity > math.MaxInt32 {
		return nil, fmt.Errorf("graph: capacity %d exceeds the NodeID range", capacity)
	}
	g := dst
	if g == nil {
		g = newShell(int(capacity))
	} else {
		g.sizeTo(int(capacity))
		g.Reset()
	}
	for i := uint32(0); i < nAlive; i++ {
		id, err := u32()
		if err != nil {
			return nil, err
		}
		if id >= capacity {
			return nil, fmt.Errorf("graph: node id %d out of range", id)
		}
		if !g.alive[id] {
			g.alive[id] = true
			g.nAlive++
		}
	}
	nEdges, err := u32()
	if err != nil {
		return nil, err
	}
	const edgeBytes = 16 // from, to, weight
	if uint64(len(data)-off) < uint64(nEdges)*edgeBytes {
		return nil, io.ErrUnexpectedEOF
	}
	edges := data[off:]
	at := func(i int) Edge {
		rec := edges[i*edgeBytes:]
		return Edge{
			From:   NodeID(binary.LittleEndian.Uint32(rec)),
			To:     NodeID(binary.LittleEndian.Uint32(rec[4:])),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
		}
	}
	if err := g.load(int(nEdges), at); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteCSV writes the graph as "from,to,weight" lines. Node ids of isolated
// live nodes are written as "from,," lines so that the graph round-trips.
func (g *Graph) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d,%d,%s\n", e.From, e.To,
			strconv.FormatFloat(e.Weight, 'g', -1, 64)); err != nil {
			return err
		}
	}
	for i, ok := range g.alive {
		if ok && g.st[i].outDeg == 0 && g.st[i].inDeg == 0 {
			if _, err := fmt.Fprintf(bw, "%d,,\n", i); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses "from,to,weight" lines as written by WriteCSV. Blank lines
// and lines starting with '#' are skipped. Parallel edges are merged.
func ReadCSV(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	type rec struct {
		from, to NodeID
		w        float64
		isolated bool
	}
	var recs []rec
	maxID := NodeID(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 3 fields, got %d", lineNo, len(parts))
		}
		from, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source id: %w", lineNo, err)
		}
		if NodeID(from) > maxID {
			maxID = NodeID(from)
		}
		if strings.TrimSpace(parts[1]) == "" {
			recs = append(recs, rec{from: NodeID(from), isolated: true})
			continue
		}
		to, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target id: %w", lineNo, err)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
		}
		if NodeID(to) > maxID {
			maxID = NodeID(to)
		}
		recs = append(recs, rec{from: NodeID(from), to: NodeID(to), w: w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var edges []Edge
	for _, r := range recs {
		if !r.isolated {
			edges = append(edges, Edge{r.from, r.to, r.w})
		}
	}
	return FromEdges(int(maxID)+1, edges)
}

// Equal reports whether g and h have the same live nodes and the same edges
// with labels equal within eps.
func Equal(g, h *Graph, eps float64) bool {
	if g.nAlive != h.nAlive || g.nEdges != h.nEdges {
		return false
	}
	for i, ok := range g.alive {
		v := NodeID(i)
		if ok != h.Alive(v) {
			return false
		}
		if !ok {
			continue
		}
		if g.OutDegree(v) != h.OutDegree(v) {
			return false
		}
		same := true
		g.eachOut(v, func(_ int32, u NodeID, w float64) {
			hw, okh := h.Label(v, u)
			if !okh || math.Abs(hw-w) > eps {
				same = false
			}
		})
		if !same {
			return false
		}
	}
	return true
}
