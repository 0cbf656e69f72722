package knowledge

import (
	"bytes"
	"strings"
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
// corpus: the binary encodings of a fully populated artifact, an empty
// one, and one whose classifier is well formed but too short for the
// feature extractor (the decoder accepts it; core rejects it), each
// followed by the same artifact as the JSON that older builds wrote,
// which must now be rejected.
func fuzzSeedArtifacts(t testing.TB) [][]byte {
	t.Helper()
	full := seedArtifact()
	empty := &Artifact{Lang: "Go", Pairs: confusion.NewPairSet()}
	short := &Artifact{Lang: "Python", Pairs: confusion.NewPairSet(),
		Classifier: &ml.PipelineState{Mean: []float64{0}, Std: []float64{1}, Weights: []float64{1}}}
	legacy := []string{
		`{"lang":"Python","pairs":[{"mistaken":"wrng2","correct":"wrong2","count":3},` +
			`{"mistaken":"wrng1","correct":"wrong1","count":2},{"mistaken":"wrng0","correct":"wrong0","count":1}],` +
			`"patterns":[{"type":"consistency","condition":["Call0 0 load0"],"deduction":["Assign 0 ϵ","Assign 1 ϵ"],` +
			`"count":3,"match_count":2,"satisfy_count":1},` +
			`{"type":"consistency","condition":["Call1 1 load1"],"deduction":["Assign 0 ϵ","Assign 1 ϵ"],` +
			`"count":4,"match_count":3,"satisfy_count":2},` +
			`{"type":"consistency","condition":["Call2 2 load2"],"deduction":["Assign 0 ϵ","Assign 1 ϵ"],` +
			`"count":5,"match_count":4,"satisfy_count":3},` +
			`{"type":"confusing-word","condition":null,"deduction":["AttributeLoad 1 receive"],` +
			`"count":12,"match_count":12,"satisfy_count":9}],` +
			`"classifier":{"mean":[0.5,1.25,-3],"std":[1,2,0.25],"use_pca":true,"pca_mean":[0.1,0.2,0.3],` +
			`"pca_components":[[1,0],[0,1],[0.5,0.5]],"weights":[0.75,-0.25],"bias":-0.125}}`,
		`{"lang":"Go","pairs":null,"patterns":null}`,
		`{"lang":"Python","pairs":null,"patterns":null,"classifier":{"mean":[0],"std":[1],"use_pca":false,"weights":[1],"bias":0}}`,
	}
	var seeds [][]byte
	for i, a := range []*Artifact{full, empty, short} {
		bin, err := EncodeBinary(a)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, bin, []byte(legacy[i]))
	}
	// A ragged PCA matrix, which no binary file can encode.
	seeds = append(seeds, []byte(`{"lang":"Python","classifier":{"mean":[0,1],"std":[1,1],"use_pca":true,`+
		`"pca_mean":[0,0],"pca_components":[[1,0],[0]],"weights":[1,1],"bias":0}}`))
	return seeds
}

// FuzzDecodeKnowledge throws arbitrary bytes at the decoder. The
// invariants: no panic, JSON is rejected as JSON, no decode of garbage
// into something that fails to re-encode, and a successful decode must
// survive a re-encode → re-decode round trip losslessly.
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
		a, err := DecodeBinary(data)
		if text := bytes.TrimLeft(data, " \t\r\n"); len(text) > 0 && text[0] == '{' &&
			(err == nil || !strings.Contains(err.Error(), "JSON")) {
			t.Fatalf("JSON-looking input not rejected as JSON: %v", err)
		}
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
