// Package knowledge implements the persistent knowledge artifact of the
// system: the mined confusing word pairs, name patterns, and trained
// classifier state that a detection process loads instead of re-mining
// (PAPER §3.3, §4.2 — mining is expensive, detection is cheap).
//
// Two on-disk formats are supported and auto-detected:
//
//   - a versioned binary format (flat.go), the default for production
//     artifacts: one checksummed buffer of fixed-width tables over an
//     interned string table; and
//   - pretty-printed JSON, kept as the human-inspectable debug format.
//
// Save picks the format from the file extension (".json" means JSON,
// anything else binary); Load sniffs the magic bytes so either format
// loads regardless of its name. All writes are atomic: the artifact is
// written to a temp file in the destination directory and renamed into
// place, so a crash mid-write can never leave a torn knowledge file.
package knowledge

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"namer/internal/confusion"
	"namer/internal/ml"
	"namer/internal/pattern"
)

// Artifact is the serializable product of mining and training: everything
// a fresh process needs to detect naming issues in new code.
type Artifact struct {
	Lang       string             `json:"lang"`
	Pairs      *confusion.PairSet `json:"pairs"`
	Patterns   []*pattern.Pattern `json:"patterns"`
	Classifier *ml.PipelineState  `json:"classifier,omitempty"`
}

// Format identifies an on-disk knowledge encoding.
type Format int

// Supported formats.
const (
	FormatBinary Format = iota
	FormatJSON
)

// String returns the format name.
func (f Format) String() string {
	if f == FormatJSON {
		return "json"
	}
	return "binary"
}

// FormatForPath returns the format Save uses for a destination path:
// ".json" files are written as JSON, everything else as binary.
func FormatForPath(path string) Format {
	if strings.EqualFold(filepath.Ext(path), ".json") {
		return FormatJSON
	}
	return FormatBinary
}

// DetectFormat sniffs the encoding of raw knowledge bytes by the binary
// magic; anything else is treated as JSON.
func DetectFormat(data []byte) Format {
	if bytes.HasPrefix(data, magic[:]) {
		return FormatBinary
	}
	return FormatJSON
}

// EncodeJSON renders the artifact as pretty-printed JSON (the debug
// format).
func EncodeJSON(a *Artifact) ([]byte, error) {
	return json.MarshalIndent(a, "", " ")
}

// DecodeJSON parses a JSON artifact. The pair set is always non-nil after
// a successful decode, even when the field is absent.
func DecodeJSON(data []byte) (*Artifact, error) {
	a := &Artifact{Pairs: confusion.NewPairSet()}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("knowledge: decoding JSON: %w", err)
	}
	if a.Pairs == nil {
		a.Pairs = confusion.NewPairSet()
	}
	// A JSON null bypasses Pattern.UnmarshalJSON entirely, and negative
	// stats pass its shape check; both would corrupt anything downstream
	// (nil deref in key warming, unencodable counts), so reject them here.
	for i, p := range a.Patterns {
		if p == nil {
			return nil, fmt.Errorf("knowledge: pattern %d is null", i)
		}
		if p.Count < 0 || p.MatchCount < 0 || p.SatisfyCount < 0 {
			return nil, fmt.Errorf("knowledge: pattern %d has negative stats", i)
		}
	}
	if a.Classifier != nil {
		if err := a.Classifier.Validate(); err != nil {
			return nil, fmt.Errorf("knowledge: %w", err)
		}
	}
	warmPatterns(a.Patterns)
	return a, nil
}

// Encode renders the artifact in the named format.
func Encode(a *Artifact, f Format) ([]byte, error) {
	if f == FormatJSON {
		return EncodeJSON(a)
	}
	return EncodeBinary(a)
}

// Decode parses an artifact in either format, auto-detected by magic.
func Decode(data []byte) (*Artifact, error) {
	if DetectFormat(data) == FormatBinary {
		return DecodeBinary(data)
	}
	return DecodeJSON(data)
}

// Save writes the artifact to path atomically, choosing the format by
// extension (FormatForPath). The data lands in a temp file in the same
// directory first and is renamed into place, so readers never observe a
// partially written artifact and a crash cannot corrupt an existing one.
func Save(path string, a *Artifact) error {
	data, err := Encode(a, FormatForPath(path))
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// Load reads an artifact from path, sniffing the format from the file
// contents so binary and JSON knowledge load interchangeably.
func Load(path string) (*Artifact, error) {
	a, _, err := LoadWithInfo(path)
	return a, err
}

// Info describes a loaded knowledge artifact: enough identity to tell
// two artifacts apart across a hot reload and to report provenance on
// health and metrics endpoints.
type Info struct {
	Format        Format    // binary or json
	FormatVersion int       // binary codec version; 0 for JSON
	Bytes         int       // on-disk artifact size
	ContentHash   string    // hex sha256 of the raw artifact bytes
	LoadedAt      time.Time // when this load happened
}

// LoadWithInfo is Load plus artifact identity: the format, codec
// version, size, and content hash of the exact bytes that were read.
func LoadWithInfo(path string) (*Artifact, Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Info{}, err
	}
	a, err := Decode(data)
	if err != nil {
		return nil, Info{}, fmt.Errorf("%s: %w", path, err)
	}
	sum := sha256.Sum256(data)
	info := Info{
		Format:      DetectFormat(data),
		Bytes:       len(data),
		ContentHash: hex.EncodeToString(sum[:]),
		LoadedAt:    time.Now(),
	}
	if info.Format == FormatBinary {
		info.FormatVersion = Version // Decode accepts no other version
	}
	return a, info, nil
}

// writeFileAtomic writes data to path via a temp file + rename in the
// destination directory (rename is atomic only within one filesystem).
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// warmPatterns precomputes every pattern's identity key from a single
// goroutine so the patterns can be shared across concurrent scans without
// racing on the lazy key cache.
func warmPatterns(ps []*pattern.Pattern) {
	for _, p := range ps {
		p.Key()
	}
}
