package knowledge

import (
	"bytes"
	"testing"

	"namer/internal/confusion"
	"namer/internal/ml"
	"namer/internal/namepath"
	"namer/internal/pattern"
)

// seedArtifact builds a fully populated artifact without needing a
// *testing.T (sampleArtifact does; fuzz seeding only has a *testing.F).
func seedArtifact() *Artifact {
	a := largeArtifact(3)
	a.Patterns = append(a.Patterns, &pattern.Pattern{
		Type: pattern.ConfusingWord,
		Deduction: []namepath.Path{{
			Prefix: []namepath.Elem{{Value: "AttributeLoad", Index: 1}},
			End:    "receive",
		}},
		Count: 12, MatchCount: 12, SatisfyCount: 9,
	})
	a.Classifier = &ml.PipelineState{
		Mean:    []float64{0.5, 1.25, -3},
		Std:     []float64{1, 2, 0.25},
		UsePCA:  true,
		PCAMean: []float64{0.1, 0.2, 0.3},
		PCACols: [][]float64{{1, 0}, {0, 1}, {0.5, 0.5}},
		Weights: []float64{0.75, -0.25},
		Bias:    -0.125,
	}
	return a
}

// fuzzSeedArtifacts returns the raw encodings seeded into the fuzz
// corpus: binary and JSON renderings of a fully populated artifact, an
// empty one, and one whose classifier is well formed but too short for
// the feature extractor (the decoder accepts it; core rejects it).
func fuzzSeedArtifacts(t testing.TB) [][]byte {
	t.Helper()
	full := seedArtifact()
	empty := &Artifact{Lang: "Go", Pairs: confusion.NewPairSet()}
	short := &Artifact{Lang: "Python", Pairs: confusion.NewPairSet(),
		Classifier: &ml.PipelineState{Mean: []float64{0}, Std: []float64{1}, Weights: []float64{1}}}
	var seeds [][]byte
	for _, a := range []*Artifact{full, empty, short} {
		bin, err := EncodeBinary(a)
		if err != nil {
			t.Fatal(err)
		}
		j, err := EncodeJSON(a)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, bin, j)
	}
	// A ragged PCA matrix parses as JSON but cannot be re-encoded, so the
	// classifier shape check must reject it.
	seeds = append(seeds, []byte(`{"lang":"Python","classifier":{"mean":[0,1],"std":[1,1],"use_pca":true,`+
		`"pca_mean":[0,0],"pca_components":[[1,0],[0]],"weights":[1,1],"bias":0}}`))
	return seeds
}

// FuzzDecodeKnowledge throws arbitrary bytes at the decode entry point.
// The invariants: no panic, no decode of garbage into something that
// fails to re-encode, and a successful decode must survive a binary
// re-encode → re-decode round trip losslessly.
func FuzzDecodeKnowledge(f *testing.F) {
	for _, seed := range fuzzSeedArtifacts(f) {
		f.Add(seed)
		if len(seed) > 8 {
			f.Add(seed[:len(seed)/2]) // truncations
			flipped := append([]byte{}, seed...)
			flipped[len(flipped)/3] ^= 0x55
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("{\"lang\":\"Python\"}"))
	f.Add([]byte{0x9E, 'N', 'K', 'B'})
	f.Add([]byte{0x9E, 'N', 'K', 'B', 0x01}) // the retired v1 header
	f.Add([]byte{0x9E, 'N', 'K', 'B', 0x02})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			return
		}
		// Anything the decoder accepts must re-encode and round-trip.
		re, err := EncodeBinary(a)
		if err != nil {
			t.Fatalf("accepted artifact failed to re-encode: %v", err)
		}
		back, err := DecodeBinary(re)
		if err != nil {
			t.Fatalf("re-encoded artifact failed to decode: %v", err)
		}
		if a.Lang != back.Lang || len(a.Patterns) != len(back.Patterns) {
			t.Fatalf("round trip diverged: %q/%d vs %q/%d",
				a.Lang, len(a.Patterns), back.Lang, len(back.Patterns))
		}
		for i := range a.Patterns {
			if a.Patterns[i].Key() != back.Patterns[i].Key() {
				t.Fatalf("pattern %d key diverged", i)
			}
		}
	})
}

// FuzzDecodeCheckpoint throws arbitrary bytes at the checkpoint envelope
// decoder, seeded with one envelope of each kind the mining driver
// writes. The invariants: an error or a value, never a panic, and an
// accepted envelope re-encodes to one that decodes to the same kind and
// payload.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, kind := range []string{"shard-stmts", "reduce-counts", "shard-trees"} {
		env, err := encodeCheckpoint(kind, []byte{0x02, 0x05, 'a', 'b', 'c', 0x00, 0x81, 0x01})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		f.Add(env[:len(env)/2])
		flipped := append([]byte{}, env...)
		flipped[len(flipped)/3] ^= 0x55
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0x9F, 'N', 'C', 'K'})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, kind, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		re, err := encodeCheckpoint(kind, payload)
		if err != nil {
			t.Fatalf("accepted envelope (kind %q) failed to re-encode: %v", kind, err)
		}
		payload2, kind2, err := decodeCheckpoint(re)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
		if kind2 != kind || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip diverged: kind %q -> %q, %d -> %d payload bytes",
				kind, kind2, len(payload), len(payload2))
		}
	})
}
