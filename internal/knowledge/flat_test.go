package knowledge

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"namer/internal/confusion"
	"namer/internal/namepath"
	"namer/internal/pattern"
)

// reseal recomputes the checksum after test surgery so corruption in a
// specific field is exercised, not just the CRC.
func reseal(data []byte) {
	binary.LittleEndian.PutUint32(data[v2ChecksumOff:], v2Checksum(data))
}

// largeArtifact builds an artifact with n synthetic consistency patterns.
func largeArtifact(n int) *Artifact {
	pairs := confusion.NewPairSet()
	a := &Artifact{Lang: "Python", Pairs: pairs}
	for i := 0; i < n; i++ {
		pairs.AddN(fmt.Sprintf("wrng%d", i), fmt.Sprintf("wrong%d", i), i+1)
		a.Patterns = append(a.Patterns, &pattern.Pattern{
			Type: pattern.Consistency,
			Condition: []namepath.Path{{
				Prefix: []namepath.Elem{{Value: fmt.Sprintf("Call%d", i), Index: i}},
				End:    fmt.Sprintf("load%d", i),
			}},
			Deduction: []namepath.Path{
				{Prefix: []namepath.Elem{{Value: "Assign", Index: 0}}, End: namepath.Epsilon},
				{Prefix: []namepath.Elem{{Value: "Assign", Index: 1}}, End: namepath.Epsilon},
			},
			Count: i + 3, MatchCount: i + 2, SatisfyCount: i + 1,
		})
	}
	return a
}

func TestLoadWithInfoIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.bin")
	otherPath := filepath.Join(dir, "other.bin")
	if err := Save(path, sampleArtifact(t, "Python", true)); err != nil {
		t.Fatal(err)
	}
	if err := Save(otherPath, sampleArtifact(t, "Python", false)); err != nil {
		t.Fatal(err)
	}
	_, info, err := LoadWithInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.ContentHash) != 64 || info.LoadedAt.IsZero() {
		t.Fatalf("info incomplete: %+v", info)
	}
	_, other, err := LoadWithInfo(otherPath)
	if err != nil {
		t.Fatal(err)
	}
	if other.ContentHash == info.ContentHash {
		t.Fatal("different bytes produced the same content hash")
	}
	// Identical bytes hash identically across loads.
	_, again, err := LoadWithInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if again.ContentHash != info.ContentHash {
		t.Fatal("content hash not stable across loads of identical bytes")
	}
}

func TestV2LargeRoundTrip(t *testing.T) {
	a := largeArtifact(500)
	data, err := EncodeBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualArtifacts(t, a, back)
}

// TestV2HeaderFieldCorruption sets every header field to an absurd value
// with a recomputed checksum, so the bounds pass — not the CRC — must
// catch it. Every field must produce an error, never a panic or an
// out-of-range read.
func TestV2HeaderFieldCorruption(t *testing.T) {
	a := sampleArtifact(t, "Python", true)
	data, err := EncodeBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	for field := 0; field < hdrFields; field++ {
		bad := append([]byte{}, data...)
		binary.LittleEndian.PutUint32(bad[v2FieldsOff+4*field:], 0xFFFFFFFF)
		reseal(bad)
		if _, err := DecodeBinary(bad); err == nil {
			t.Errorf("header field %d set to 0xFFFFFFFF accepted", field)
		}
	}
}

// TestV2TargetedCorruption drives resealed (valid-CRC) corruption into
// the index structures themselves: string offsets, cross-table indices,
// and pattern shape fields.
func TestV2TargetedCorruption(t *testing.T) {
	a := sampleArtifact(t, "Python", true)
	data, err := EncodeBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	v, err := openView(data)
	if err != nil {
		t.Fatal(err)
	}
	h := v.h

	corrupt := func(name string, off uint32, val uint32, wantErr string) {
		t.Helper()
		bad := append([]byte{}, data...)
		binary.LittleEndian.PutUint32(bad[off:], val)
		reseal(bad)
		_, err := DecodeBinary(bad)
		if err == nil {
			t.Errorf("%s: accepted", name)
			return
		}
		if wantErr != "" && !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, wantErr)
		}
	}

	// Non-monotone string offset table entry.
	corrupt("string offset beyond blob", h[hdrStrOffsOff]+4, h[hdrStrBlobLen]+100, "string offset table")
	// Pair referencing a string id past the table.
	corrupt("pair string id", h[hdrPairsOff], h[hdrNumStrings]+5, "pair 0")
	// Path element string id out of range.
	corrupt("elem string id", h[hdrElemsOff], h[hdrNumStrings], "element 0")
	// Path pointing past the elem table.
	corrupt("path elem start", h[hdrPathsOff], h[hdrNumElems]+1, "path 0")
	// Path end string out of range.
	corrupt("path end id", h[hdrPathsOff]+8, h[hdrNumStrings], "path 0 end")
	// Pattern with a path range past the path table.
	corrupt("pattern path start", h[hdrPatternsOff]+16, h[hdrNumPaths]+1, "pattern 0")
	// Pattern type out of the enum.
	corrupt("pattern type", h[hdrPatternsOff], 99, "unknown type")
	// Consistency pattern with the wrong deduction arity.
	corrupt("pattern deduction arity", h[hdrPatternsOff]+28, 1, "pattern 0")
	// Classifier vectors that disagree in shape pass the bounds pass but
	// would panic on the first Classify.
	corrupt("classifier std count", v2FieldsOff+4*hdrNumStd, h[hdrNumStd]-1, "std")
	corrupt("classifier pca cols", v2FieldsOff+4*hdrPCACols, h[hdrPCACols]-1, "columns")

	// Version byte corruption still mentions "version".
	bad := append([]byte{}, data...)
	bad[4] = 0x63
	reseal(bad)
	if _, err := DecodeBinary(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: got %v", err)
	}

	// Length field mismatch is caught before the checksum runs.
	bad = append([]byte{}, data...)
	binary.LittleEndian.PutUint32(bad[v2LengthOff:], uint32(len(bad))+8)
	if _, err := DecodeBinary(bad); err == nil || !strings.Contains(err.Error(), "length") {
		t.Errorf("length mismatch: got %v", err)
	}
}

// TestV2EveryByteFlipRejected: v2 is fully checksummed, so flipping any
// byte must produce an error.
func TestV2EveryByteFlipRejected(t *testing.T) {
	a := sampleArtifact(t, "Python", true)
	data, err := EncodeBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		bad := append([]byte{}, data...)
		bad[i] ^= 0x55
		if _, err := DecodeBinary(bad); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
}

// TestOpenFileErrors: a missing file fails, and so does a file in the
// retired v1 varint format, which shares the magic: its error must name
// the version and say how to recover, whatever follows the version byte.
func TestOpenFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file loaded")
	}
	for name, data := range map[string][]byte{
		"v1 header only": {0x9E, 'N', 'K', 'B', 0x01},
		"v1 body":        append([]byte{0x9E, 'N', 'K', 'B', 0x01, 0x03, 0x00, 0x02, 'G', 'o'}, make([]byte, 200)...),
	} {
		path := filepath.Join(dir, "k.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path)
		if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "namer-mine") {
			t.Errorf("%s: got %v, want an unsupported-version-1 error naming namer-mine", name, err)
		}
	}
}
