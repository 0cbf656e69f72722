package knowledge

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"namer/internal/confusion"
	"namer/internal/ml"
	"namer/internal/namepath"
	"namer/internal/pattern"
)

// mustPath parses a name path in the textual notation or fails the test.
func mustPath(t *testing.T, s string) namepath.Path {
	t.Helper()
	p, ok := namepath.ParsePath(s)
	if !ok {
		t.Fatalf("bad path %q", s)
	}
	return p
}

// sampleArtifact builds a small but fully populated artifact for lang,
// optionally with classifier state.
func sampleArtifact(t *testing.T, lang string, classifier bool) *Artifact {
	t.Helper()
	pairs := confusion.NewPairSet()
	pairs.AddN("recieve", "receive", 7)
	pairs.AddN("cnt", "count", 3)
	a := &Artifact{
		Lang:  lang,
		Pairs: pairs,
		Patterns: []*pattern.Pattern{
			{
				Type: pattern.Consistency,
				Condition: []namepath.Path{
					mustPath(t, "Assign 1 Call 0 load"),
				},
				Deduction: []namepath.Path{
					mustPath(t, "Assign 0 NameStore 0 ε"),
					mustPath(t, "Assign 1 Call 1 NameLoad 0 ε"),
				},
				Count: 42, MatchCount: 40, SatisfyCount: 38,
			},
			{
				Type: pattern.ConfusingWord,
				Deduction: []namepath.Path{
					mustPath(t, "Expr 0 Call 0 AttributeLoad 1 receive"),
				},
				Count: 12, MatchCount: 12, SatisfyCount: 9,
			},
		},
	}
	if classifier {
		a.Classifier = &ml.PipelineState{
			Mean:    []float64{0.5, 1.25, -3},
			Std:     []float64{1, 2, 0.25},
			UsePCA:  true,
			PCAMean: []float64{0.1, 0.2, 0.3},
			PCACols: [][]float64{{1, 0}, {0, 1}, {0.5, 0.5}},
			Weights: []float64{0.75, -0.25},
			Bias:    -0.125,
		}
	}
	return a
}

// assertEqualArtifacts compares every semantic component of two artifacts.
func assertEqualArtifacts(t *testing.T, want, got *Artifact) {
	t.Helper()
	if got.Lang != want.Lang {
		t.Fatalf("lang: %q vs %q", got.Lang, want.Lang)
	}
	if !reflect.DeepEqual(want.Pairs.Pairs(), got.Pairs.Pairs()) {
		t.Fatalf("pairs diverged: %v vs %v", want.Pairs.Pairs(), got.Pairs.Pairs())
	}
	for _, p := range want.Pairs.Pairs() {
		if want.Pairs.Count(p[0], p[1]) != got.Pairs.Count(p[0], p[1]) {
			t.Fatalf("pair count for %v diverged", p)
		}
	}
	if len(want.Patterns) != len(got.Patterns) {
		t.Fatalf("patterns: %d vs %d", len(got.Patterns), len(want.Patterns))
	}
	for i := range want.Patterns {
		w, g := want.Patterns[i], got.Patterns[i]
		if w.Key() != g.Key() {
			t.Fatalf("pattern %d key: %q vs %q", i, g.Key(), w.Key())
		}
		if w.Count != g.Count || w.MatchCount != g.MatchCount || w.SatisfyCount != g.SatisfyCount {
			t.Fatalf("pattern %d stats diverged", i)
		}
	}
	if (want.Classifier == nil) != (got.Classifier == nil) {
		t.Fatalf("classifier presence: %v vs %v", got.Classifier != nil, want.Classifier != nil)
	}
	if want.Classifier != nil && !reflect.DeepEqual(want.Classifier, got.Classifier) {
		t.Fatalf("classifier state diverged:\n%+v\nvs\n%+v", got.Classifier, want.Classifier)
	}
}

func TestRoundTripAllLanguages(t *testing.T) {
	for _, lang := range []string{"Python", "Java", "Go"} {
		for _, classifier := range []bool{false, true} {
			a := sampleArtifact(t, lang, classifier)
			data, err := EncodeBinary(a)
			if err != nil {
				t.Fatalf("%s/classifier=%v: encode: %v", lang, classifier, err)
			}
			back, err := DecodeBinary(data)
			if err != nil {
				t.Fatalf("%s/classifier=%v: decode: %v", lang, classifier, err)
			}
			assertEqualArtifacts(t, a, back)
		}
	}
}

// legacyJSON is sampleArtifact(t, "Python", true) as older builds wrote
// it to a ".json" destination.
const legacyJSON = `{
 "lang": "Python",
 "pairs": [
  {"mistaken": "recieve", "correct": "receive", "count": 7},
  {"mistaken": "cnt", "correct": "count", "count": 3}
 ],
 "patterns": [
  {
   "type": "consistency",
   "condition": ["Assign 1 Call 0 load"],
   "deduction": ["Assign 0 NameStore 0 ϵ", "Assign 1 Call 1 NameLoad 0 ϵ"],
   "count": 42,
   "match_count": 40,
   "satisfy_count": 38
  },
  {
   "type": "confusing-word",
   "condition": null,
   "deduction": ["Expr 0 Call 0 AttributeLoad 1 receive"],
   "count": 12,
   "match_count": 12,
   "satisfy_count": 9
  }
 ],
 "classifier": {
  "mean": [0.5, 1.25, -3],
  "std": [1, 2, 0.25],
  "use_pca": true,
  "pca_mean": [0.1, 0.2, 0.3],
  "pca_components": [[1, 0], [0, 1], [0.5, 0.5]],
  "weights": [0.75, -0.25],
  "bias": -0.125
 }
}
`

// TestSaveLoadByExtensionAndSniffing: the extension does not pick the
// format, so Save gives a ".json" destination the same binary bytes as a
// ".bin" one, and both load. Load judges a file by its bytes: a JSON
// artifact, as older builds wrote it, fails with an error that names
// JSON and says to re-mine, whatever its name and however it starts.
func TestSaveLoadByExtensionAndSniffing(t *testing.T) {
	dir := t.TempDir()
	a := sampleArtifact(t, "Python", true)
	want, err := EncodeBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"knowledge.json", "knowledge.bin"} {
		path := filepath.Join(dir, name)
		if err := Save(path, a); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: saved %d bytes that are not the binary encoding (%d bytes)", name, len(got), len(want))
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		assertEqualArtifacts(t, a, back)
	}
	// No temp files left behind by the atomic writes.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}

	for _, name := range []string{"legacy.json", "legacy.bin"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(legacyJSON), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil || !strings.Contains(err.Error(), "JSON knowledge is no longer read") ||
			!strings.Contains(err.Error(), "re-run namer-mine") {
			t.Fatalf("load of a JSON artifact named %s: got %v, want the re-mine error", name, err)
		}
	}
	for _, data := range []string{`{"lang":"Go"}`, "\n\t {", `{]`} {
		if _, err := DecodeBinary([]byte(data)); err == nil || !strings.Contains(err.Error(), "JSON") {
			t.Errorf("decode of %q: got %v, want the JSON error", data, err)
		}
	}
}

func TestAtomicSavePreservesOldFileOnBadDir(t *testing.T) {
	dir := t.TempDir()
	a := sampleArtifact(t, "Java", false)
	path := filepath.Join(dir, "does", "not", "exist", "k.bin")
	if err := Save(path, a); err == nil {
		t.Fatal("expected error saving into a missing directory")
	}
}

// TestCorruptInputsErrorNotPanic drives the binary decoder over a large
// family of corrupt files: every truncation prefix, wrong magic, a future
// version, and single-byte flips. All must return errors (or succeed, for
// flips that land in don't-care bits) — never panic.
func TestCorruptInputsErrorNotPanic(t *testing.T) {
	a := sampleArtifact(t, "Python", true)
	data, err := EncodeBinary(a)
	if err != nil {
		t.Fatal(err)
	}

	// Every truncated prefix must fail cleanly.
	for n := 0; n < len(data); n++ {
		if _, err := DecodeBinary(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}

	// Wrong magic.
	bad := append([]byte{}, data...)
	bad[0] ^= 0xFF
	if _, err := DecodeBinary(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: got %v", err)
	}

	// Future version.
	bad = append([]byte{}, data...)
	bad[4] = 0x63 // varint 99
	if _, err := DecodeBinary(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: got %v", err)
	}

	// Flip every byte, one at a time. Decoding may succeed or fail, but
	// must never panic (DecodeBinary converts decoder panics to errors;
	// the test binary would crash on an unrecovered one).
	for i := range data {
		bad := append([]byte{}, data...)
		bad[i] ^= 0x55
		DecodeBinary(bad)
	}

	// Trailing garbage is rejected.
	if _, err := DecodeBinary(append(append([]byte{}, data...), 0xAB)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestEmptyArtifactRoundTrip(t *testing.T) {
	a := &Artifact{Lang: "Go", Pairs: confusion.NewPairSet()}
	data, err := EncodeBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Lang != "Go" || back.Pairs == nil || back.Pairs.Len() != 0 ||
		len(back.Patterns) != 0 || back.Classifier != nil {
		t.Fatalf("empty artifact round-trip diverged: %+v", back)
	}
	// A nil pair set encodes as empty rather than crashing.
	if _, err := EncodeBinary(&Artifact{Lang: "Go"}); err != nil {
		t.Fatal(err)
	}
}
