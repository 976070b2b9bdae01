package partition

import (
	"bytes"
	"encoding/binary"
	"maps"
	"testing"

	"ccp/internal/gen"
	"ccp/internal/graph"
)

// fuzzMaxCap bounds the id capacity a fuzzed partition's local graph may
// declare: the decoder sizes its per-node arrays from it, so an unbounded
// fuzzer would spend its memory on huge empty id spaces.
const fuzzMaxCap = 1 << 16

// localGraphCap walks a CCPP1 payload's header to the local graph's
// declared capacity; ok is false when the payload ends first.
func localGraphCap(data []byte) (capacity uint32, ok bool) {
	off := uint64(len(partitionMagic)) + 8 // magic, id, cross-out count
	u32 := func() (uint32, bool) {
		if off+4 > uint64(len(data)) {
			return 0, false
		}
		x := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return x, true
	}
	for _, width := range []uint64{4, 4, 8} { // members, virtual, cross-in pairs
		n, ok := u32()
		if !ok {
			return 0, false
		}
		off += width * uint64(n)
	}
	off += uint64(len("CCPG1\n"))
	return u32()
}

// samePartition reports whether two partitions carry the same identity,
// boundary bookkeeping and local graph.
func samePartition(p, q *Partition) bool {
	return p.ID == q.ID && p.CrossOut == q.CrossOut &&
		maps.Equal(p.Members, q.Members) && maps.Equal(p.Virtual, q.Virtual) &&
		maps.Equal(p.InNodes, q.InNodes) && maps.Equal(p.CrossIn, q.CrossIn) &&
		p.Local.Cap() == q.Local.Cap() && graph.Equal(p.Local, q.Local, 0)
}

// FuzzReadPartition throws mutated byte payloads at the CCPP1 decoder,
// which builds the local graph's base in bulk: it must reject or accept,
// never panic, and anything it accepts must re-encode into a payload that
// decodes to the same partition.
func FuzzReadPartition(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.Random(12, 30, seed)
		pi, err := ByHash(g, 2)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range pi.Parts {
			var buf bytes.Buffer
			if err := p.WriteBinary(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte(partitionMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := localGraphCap(data); ok && c > fuzzMaxCap {
			return
		}
		p, err := ReadPartition(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := p.WriteBinary(&buf); err != nil {
			t.Fatalf("accepted partition cannot encode: %v", err)
		}
		back, err := ReadPartition(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !samePartition(p, back) {
			t.Fatal("round trip changed the accepted partition")
		}
	})
}
