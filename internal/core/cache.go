package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"

	"namer/internal/ast"
	"namer/internal/features"
)

// FileCache is the pluggable content-hash parse cache consulted by the
// scan path (ScanFilesCtx/DiffFilesCtx). The cached unit is one
// fully analyzed file — parsed AST, extracted statements with their name
// paths, the per-file statistics fragment, and the per-file match output
// — keyed by a hash of the file identity and content (FileCacheKey).
//
// Implementations must be safe for concurrent use; internal/servecache
// provides the bounded LRU used by namer-serve. Cached values are shared
// across requests and must be treated as immutable by every consumer —
// the scan path only ever reads them.
//
// The cached match fragment is computed against the system's loaded
// pattern index, so a cache is valid for exactly one (config, knowledge)
// pair: after swapping knowledge, install a fresh cache.
type FileCache interface {
	// Get returns the cached unit for key, or ok=false on a miss.
	Get(key string) (*CachedFile, bool)
	// Add publishes a finished unit under key.
	Add(key string, f *CachedFile)
}

// CachedFile is one fully analyzed file, the unit the cache stores.
// All fields are read-only once the unit has been published.
type CachedFile struct {
	// Root is the parsed file AST (the AST+ decoration happens per
	// statement and is captured in Stmts).
	Root *ast.Node
	// Stmts is the front-end output: processed statements with indexed
	// name paths.
	Stmts []*ProcStmt
	// Stats is the per-file statistics fragment: statement fingerprints
	// plus the pattern observations of the match pass. Request-level
	// statistics are the additive merge of these fragments, which equals
	// the serial uncached pass exactly.
	Stats *features.Index
	// Violations is the per-file match output, pre-dedup, in
	// deterministic statement order.
	Violations []*Violation
	// Cost is the unit's byte-size estimate used for cache accounting.
	Cost int64
}

// SetFileCache installs (or removes, with nil) the per-file scan cache.
// Call before serving; the cache itself provides the synchronization,
// but installing one mid-flight is not synchronized.
func (s *System) SetFileCache(c FileCache) { s.cache = c }

// FileCache returns the installed cache, nil when disabled.
func (s *System) FileCache() FileCache { return s.cache }

// cacheActive reports whether per-file units can be cached: the match
// fragment is part of the unit, so caching needs loaded knowledge.
func (s *System) cacheActive() bool { return s.cache != nil && s.index != nil }

// FileCacheKey returns the content-hash cache key for one input file:
// a SHA-256 over the language, repo, path, and full source text. Repo
// and path participate because they are part of the scan output
// (reports and statistics are path-keyed), so the same content under
// two paths is two cache entries.
func (s *System) FileCacheKey(f *InputFile) string {
	h := sha256.New()
	io.WriteString(h, s.cfg.Lang.String())
	h.Write([]byte{0})
	io.WriteString(h, f.Repo)
	h.Write([]byte{0})
	io.WriteString(h, f.Path)
	h.Write([]byte{0})
	io.WriteString(h, f.Source)
	return hex.EncodeToString(h.Sum(nil))
}

// cost estimates the resident size of the unit in bytes. It is a
// deterministic estimate (struct overheads are flat constants), not an
// exact accounting; the cache's byte bound is enforced against it.
func (e *CachedFile) cost() int64 {
	c := int64(256)
	if e.Root != nil {
		c += int64(e.Root.CountNodes()) * 96
	}
	for _, ps := range e.Stmts {
		c += 160 + int64(len(ps.Repo)+len(ps.Path)+len(ps.Fingerprint)+len(ps.SourceLine))
		for _, p := range ps.PS.Paths {
			c += 64 + 2*int64(len(p.Key()))
		}
	}
	c += int64(len(e.Violations)) * 128
	return c
}
