// Package knowledge implements the persistent knowledge artifact of the
// system: the mined confusing word pairs, name patterns, and trained
// classifier state that a detection process loads instead of re-mining
// (PAPER §3.3, §4.2 — mining is expensive, detection is cheap).
//
// An artifact has one on-disk format, the versioned binary layout of
// flat.go: one checksummed buffer of fixed-width tables over an interned
// string table. Save writes it whatever the file is called. All writes
// are atomic: the artifact is written to a temp file in the destination
// directory and renamed into place, so a crash mid-write can never leave
// a torn knowledge file.
package knowledge

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"namer/internal/confusion"
	"namer/internal/ml"
	"namer/internal/pattern"
)

// Artifact is the serializable product of mining and training: everything
// a fresh process needs to detect naming issues in new code.
type Artifact struct {
	Lang       string
	Pairs      *confusion.PairSet
	Patterns   []*pattern.Pattern
	Classifier *ml.PipelineState
}

// Save writes the artifact to path atomically in the binary format. The
// data lands in a temp file in the same directory first and is renamed
// into place, so readers never observe a partially written artifact and
// a crash cannot corrupt an existing one.
func Save(path string, a *Artifact) error {
	data, err := EncodeBinary(a)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// Load reads a binary artifact from path.
func Load(path string) (*Artifact, error) {
	a, _, err := LoadWithInfo(path)
	return a, err
}

// Info describes a loaded knowledge artifact: enough identity to tell
// two artifacts apart across a hot reload and to report provenance on
// health and metrics endpoints.
type Info struct {
	ContentHash string    // hex sha256 of the raw artifact bytes
	LoadedAt    time.Time // when this load happened
}

// LoadWithInfo is Load plus artifact identity: the content hash of the
// exact bytes that were read. Their format version is always Version,
// the only one DecodeBinary accepts.
func LoadWithInfo(path string) (*Artifact, Info, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Info{}, err
	}
	a, err := DecodeBinary(data)
	if err != nil {
		return nil, Info{}, fmt.Errorf("%s: %w", path, err)
	}
	sum := sha256.Sum256(data)
	return a, Info{ContentHash: hex.EncodeToString(sum[:]), LoadedAt: time.Now()}, nil
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
