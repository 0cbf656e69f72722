package fptree

import "testing"

// FuzzDecodeTree throws arbitrary bytes at the tree codec, seeded with
// the encodings of random trees (and their truncations and flips). The
// invariants: an error or a tree, never a panic, and an accepted tree
// survives EncodeTree → DecodeTree with an equal Canonical form.
func FuzzDecodeTree(f *testing.F) {
	f.Add(EncodeTree(New()))
	for seed := int64(0); seed < 4; seed++ {
		data := EncodeTree(randomTree(seed, 20, 6, 12))
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := append([]byte{}, data...)
		flipped[len(flipped)/3] ^= 0x55
		f.Add(flipped)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTree(data)
		if err != nil {
			return
		}
		back, err := DecodeTree(EncodeTree(tr))
		if err != nil {
			t.Fatalf("re-encoded tree failed to decode: %v", err)
		}
		if back.Canonical() != tr.Canonical() {
			t.Fatal("tree changed across an encode/decode round trip")
		}
	})
}
