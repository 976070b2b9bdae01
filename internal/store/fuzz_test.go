package store

import (
	"math"
	"testing"
)

// FuzzDecodeFrame throws mutated bytes at the WAL frame decoder: it must
// reject or accept, never panic, consume no more than it was given, and any
// frame it accepts must re-encode into a frame that decodes to the same
// record.
func FuzzDecodeFrame(f *testing.F) {
	for i, rec := range []Record{
		{Kind: KindStake, Owner: 3, Owned: 9, Weight: 0.6},
		{Kind: KindStake, Owner: 3, Owned: 9, Remove: true},
		{Kind: KindCrossIn, Owned: 12, Delta: -1},
		{Kind: KindMark},
	} {
		f.Add(appendFrame(nil, uint64(i+1), rec))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("accepted frame consumed %d of %d bytes", n, len(data))
		}
		again, m, err := decodeFrame(appendFrame(nil, rec.Seq, rec))
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if m != frameLen || !sameRecord(rec, again) {
			t.Fatalf("round trip changed the record: %+v -> %+v", rec, again)
		}
	})
}

// sameRecord compares records field by field, the weight by its bits (a
// frame may carry a NaN).
func sameRecord(a, b Record) bool {
	wa, wb := math.Float64bits(a.Weight), math.Float64bits(b.Weight)
	a.Weight, b.Weight = 0, 0
	return a == b && wa == wb
}
