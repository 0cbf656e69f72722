// Package session holds per-client editor state for namer-serve's
// long-lived sessions, modeled on gopls overlays: a session is a set of
// open file overlays with versioned contents, advanced by didChange-style
// incremental edits (range + replacement text, with a full-content
// fallback), plus whatever per-file scan state the serving layer attaches.
//
// The package is deliberately analysis-agnostic: it owns identity, the
// overlay text, edit application, per-session serialization, idle
// eviction, and capacity — while the scan state it stores per file is an
// opaque value managed by the caller. A change hands the caller the
// content before and after the edits; where the edits landed is for the
// caller to find by comparing the two. That keeps the locking story in one
// place: a change locks its session for the whole apply-scan-store
// cycle, so edits to one session serialize while distinct sessions
// proceed in parallel.
package session

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Config zero values.
const (
	DefaultMaxSessions = 4096
	DefaultIdleTTL     = 5 * time.Minute
)

// Errors the manager and edit application return; the serving layer
// maps them to HTTP statuses.
var (
	// ErrTooManySessions: capacity reached; the client should retry
	// after others close or idle out.
	ErrTooManySessions = errors.New("session: too many open sessions")
	// ErrUnknownFile: a range edit addressed a file the session has no
	// overlay for (the first change to a file must carry full content).
	ErrUnknownFile = errors.New("session: no overlay for file")
	// ErrBadRange: an edit range does not fit the overlay content.
	ErrBadRange = errors.New("session: edit range out of bounds")
)

// Metrics are optional instrumentation hooks, satisfied by the obs
// package's Gauge and Counter.
type Metrics struct {
	// Count tracks the number of open sessions.
	Count interface{ Set(v int64) }
	// IdleEvictions counts sessions evicted by the idle sweep.
	IdleEvictions interface{ Inc() }
}

// Config configures a Manager.
type Config struct {
	// MaxSessions caps concurrently open sessions; 0 means
	// DefaultMaxSessions, negative means unlimited.
	MaxSessions int
	// IdleTTL evicts sessions with no activity for this long; 0 means
	// DefaultIdleTTL, negative disables eviction.
	IdleTTL time.Duration
	// Metrics hooks; zero value is fine.
	Metrics Metrics
	// Now substitutes the clock, for tests; nil means time.Now.
	Now func() time.Time
}

// Manager owns the session table.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	sessions  map[string]*Session
	lastSweep time.Time
}

// NewManager returns an empty manager.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.IdleTTL == 0 {
		cfg.IdleTTL = DefaultIdleTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Manager{cfg: cfg, sessions: make(map[string]*Session)}
}

// Open creates a new session with a fresh unguessable id.
func (m *Manager) Open() (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(false)
	if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
		return nil, ErrTooManySessions
	}
	s := &Session{id: newID(), created: m.cfg.Now(), files: make(map[string]*file)}
	s.lastActive.Store(s.created.UnixNano())
	m.sessions[s.id] = s
	m.setCount()
	return s, nil
}

// Get looks up a session and marks it active.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(false)
	s, ok := m.sessions[id]
	if ok {
		s.lastActive.Store(m.cfg.Now().UnixNano())
	}
	return s, ok
}

// Close removes a session; it reports whether the id was open. A change
// already in flight on the session finishes against the orphaned state.
func (m *Manager) Close(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.setCount()
	}
	return ok
}

// Len reports the number of open sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Sweep evicts every session idle longer than the TTL and returns how
// many were evicted. Open and Get sweep opportunistically (rate-limited
// to one pass per quarter TTL), so an explicit call is only needed by
// tests and shutdown paths.
func (m *Manager) Sweep() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweepLocked(true)
}

func (m *Manager) sweepLocked(force bool) int {
	if m.cfg.IdleTTL < 0 {
		return 0
	}
	now := m.cfg.Now()
	if !force {
		if interval := m.cfg.IdleTTL / 4; now.Sub(m.lastSweep) < interval {
			return 0
		}
	}
	m.lastSweep = now
	cutoff := now.Add(-m.cfg.IdleTTL).UnixNano()
	evicted := 0
	for id, s := range m.sessions {
		if s.lastActive.Load() <= cutoff {
			delete(m.sessions, id)
			evicted++
			if m.cfg.Metrics.IdleEvictions != nil {
				m.cfg.Metrics.IdleEvictions.Inc()
			}
		}
	}
	if evicted > 0 {
		m.setCount()
	}
	return evicted
}

func (m *Manager) setCount() {
	if m.cfg.Metrics.Count != nil {
		m.cfg.Metrics.Count.Set(int64(len(m.sessions)))
	}
}

func newID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("session: reading random id: %v", err))
	}
	return "s-" + hex.EncodeToString(b[:])
}

// Session is one client's overlay state.
type Session struct {
	id      string
	created time.Time
	// lastActive is unix nanos of the last Get, for the idle sweep.
	lastActive atomic.Int64

	// mu serializes changes within the session: apply + scan + store
	// run under it, so a session's edits are totally ordered while
	// distinct sessions run concurrently.
	mu    sync.Mutex
	files map[string]*file
}

// file is one open overlay.
type file struct {
	content string
	version int
	state   any
}

// ID returns the session id.
func (s *Session) ID() string { return s.id }

// Files returns the open overlay paths, in no particular order.
func (s *Session) Files() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.files))
	for p := range s.files {
		out = append(out, p)
	}
	return out
}

// Pos is a zero-based line/character position, LSP-style. Character is
// a byte offset within the line.
type Pos struct {
	Line      int `json:"line"`
	Character int `json:"character"`
}

// Range is a half-open [Start, End) text range.
type Range struct {
	Start Pos `json:"start"`
	End   Pos `json:"end"`
}

// Edit is one content change: replace Range with Text, or — with a nil
// Range — replace the whole file content (the didChange full-content
// fallback, also how a file is first opened in a session).
type Edit struct {
	Range *Range `json:"range,omitempty"`
	Text  string `json:"text"`
}

// Change is the outcome of applying one batch of edits, handed to the
// scan callback while the session lock is held.
type Change struct {
	Path    string
	Version int
	// Before/After are the overlay contents around the edits.
	Before string
	After  string
	// Hint is always nil; it stays only because perfbench reads it.
	Hint any
	// Prev is the scan state the previous change stored; nil on the
	// first change of a file.
	Prev any
}

// Update applies one batch of edits to path and, if scan is non-nil,
// invokes it with the applied change and stores its return value as the
// file's new scan state. The whole cycle runs under the session lock.
// On an edit-application error the overlay is left untouched and scan
// is not called.
func (s *Session) Update(path string, version int, edits []Edit, scan func(*Change) any) error {
	if len(edits) == 0 {
		return fmt.Errorf("session: change for %s carries no edits", path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[path]
	if f == nil {
		if edits[0].Range != nil {
			return fmt.Errorf("%w: %s", ErrUnknownFile, path)
		}
		f = &file{}
	}
	content := f.content
	for _, e := range edits {
		if e.Range == nil {
			content = e.Text
			continue
		}
		next, err := applyEdit(content, e)
		if err != nil {
			return err
		}
		content = next
	}
	ch := &Change{
		Path:    path,
		Version: version,
		Before:  f.content,
		After:   content,
		Prev:    f.state,
	}
	f.content = content
	f.version = version
	s.files[path] = f
	if scan != nil {
		f.state = scan(ch)
	}
	return nil
}

// Snapshot returns a file's current overlay content and version.
func (s *Session) Snapshot(path string) (content string, version int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[path]
	if f == nil {
		return "", 0, false
	}
	return f.content, f.version, true
}

// applyEdit replaces one range in content.
func applyEdit(content string, e Edit) (string, error) {
	lines := strings.Split(content, "\n")
	so, err := offsetOf(lines, e.Range.Start)
	if err != nil {
		return "", err
	}
	eo, err := offsetOf(lines, e.Range.End)
	if err != nil {
		return "", err
	}
	if eo < so {
		return "", fmt.Errorf("%w: end %d:%d before start %d:%d",
			ErrBadRange, e.Range.End.Line, e.Range.End.Character,
			e.Range.Start.Line, e.Range.Start.Character)
	}
	return content[:so] + e.Text + content[eo:], nil
}

// offsetOf converts a position to a byte offset over split lines,
// rejecting positions outside the content.
func offsetOf(lines []string, p Pos) (int, error) {
	if p.Line < 0 || p.Line >= len(lines) {
		return 0, fmt.Errorf("%w: line %d of %d", ErrBadRange, p.Line, len(lines))
	}
	if p.Character < 0 || p.Character > len(lines[p.Line]) {
		return 0, fmt.Errorf("%w: character %d on line %d (%d bytes)",
			ErrBadRange, p.Character, p.Line, len(lines[p.Line]))
	}
	off := 0
	for i := 0; i < p.Line; i++ {
		off += len(lines[i]) + 1
	}
	return off + p.Character, nil
}
