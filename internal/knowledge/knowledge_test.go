package knowledge

import (
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

func TestRoundTripAllLanguagesAndFormats(t *testing.T) {
	for _, lang := range []string{"Python", "Java", "Go"} {
		for _, classifier := range []bool{false, true} {
			for _, format := range []Format{FormatBinary, FormatJSON} {
				a := sampleArtifact(t, lang, classifier)
				data, err := Encode(a, format)
				if err != nil {
					t.Fatalf("%s/%v/classifier=%v: encode: %v", lang, format, classifier, err)
				}
				if got := DetectFormat(data); got != format {
					t.Fatalf("%v encoded bytes detected as %v", format, got)
				}
				back, err := Decode(data)
				if err != nil {
					t.Fatalf("%s/%v/classifier=%v: decode: %v", lang, format, classifier, err)
				}
				assertEqualArtifacts(t, a, back)
			}
		}
	}
}

func TestSaveLoadByExtensionAndSniffing(t *testing.T) {
	dir := t.TempDir()
	a := sampleArtifact(t, "Python", true)

	jsonPath := filepath.Join(dir, "knowledge.json")
	binPath := filepath.Join(dir, "knowledge.bin")
	if err := Save(jsonPath, a); err != nil {
		t.Fatal(err)
	}
	if err := Save(binPath, a); err != nil {
		t.Fatal(err)
	}
	jdata, _ := os.ReadFile(jsonPath)
	bdata, _ := os.ReadFile(binPath)
	if DetectFormat(jdata) != FormatJSON {
		t.Fatal(".json file did not encode as JSON")
	}
	if DetectFormat(bdata) != FormatBinary {
		t.Fatal(".bin file did not encode as binary")
	}
	// Load must sniff content, not trust the name: binary bytes under a
	// .json name still load.
	disguised := filepath.Join(dir, "disguised.json")
	if err := os.WriteFile(disguised, bdata, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jsonPath, binPath, disguised} {
		back, err := Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
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
}

func TestAtomicSavePreservesOldFileOnBadDir(t *testing.T) {
	dir := t.TempDir()
	a := sampleArtifact(t, "Java", false)
	path := filepath.Join(dir, "does", "not", "exist", "k.bin")
	if err := Save(path, a); err == nil {
		t.Fatal("expected error saving into a missing directory")
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	a := sampleArtifact(t, "Python", true)
	jdata, err := EncodeJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	bdata, err := EncodeBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(bdata) >= len(jdata) {
		t.Fatalf("binary (%d bytes) not smaller than JSON (%d bytes)", len(bdata), len(jdata))
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
	// Decode (auto-detect) treats non-magic bytes as JSON and must also
	// fail without panicking.
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic decoded as JSON without error")
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

	// Corrupt JSON paths error as well.
	if _, err := Decode([]byte(`{"lang": "Python", "patterns": [{]`)); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
	if _, err := Decode([]byte(`{"lang":"Python","patterns":[{"type":"consistency","deduction":["x"]}]}`)); err == nil {
		t.Fatal("invalid pattern accepted")
	}
	// Classifier vectors that disagree in shape would panic on the first
	// prediction (or, for a ragged PCA matrix, fail to re-encode).
	for name, js := range map[string]string{
		"short std": `{"lang":"Python","classifier":{"mean":[0,1],"std":[1],"weights":[1,1]}}`,
		"ragged pca": `{"lang":"Python","classifier":{"mean":[0,1],"std":[1,1],"use_pca":true,` +
			`"pca_mean":[0,0],"pca_components":[[1,0],[0]],"weights":[1,1]}}`,
	} {
		if _, err := Decode([]byte(js)); err == nil || !strings.Contains(err.Error(), "classifier") {
			t.Errorf("%s: got %v, want a classifier shape error", name, err)
		}
	}
}

func TestEmptyArtifactRoundTrip(t *testing.T) {
	a := &Artifact{Lang: "Go", Pairs: confusion.NewPairSet()}
	for _, format := range []Format{FormatBinary, FormatJSON} {
		data, err := Encode(a, format)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if back.Lang != "Go" || back.Pairs == nil || back.Pairs.Len() != 0 ||
			len(back.Patterns) != 0 || back.Classifier != nil {
			t.Fatalf("%v: empty artifact round-trip diverged: %+v", format, back)
		}
	}
	// A nil pair set encodes as empty rather than crashing.
	if _, err := EncodeBinary(&Artifact{Lang: "Go"}); err != nil {
		t.Fatal(err)
	}
}
