// Package serve implements the HTTP serving layer over mined knowledge:
// a long-running daemon loads the knowledge artifact once and answers
// scan requests (source snippet in, classified violations + suggested
// fixes out) using the read-only scan path of internal/core (ScanFiles).
//
// Endpoints:
//
//	GET  /healthz      liveness + knowledge summary
//	POST /v1/scan      scan source for naming issues
//	POST /v1/diff      scan a change, report only introduced issues
//	POST /v1/session   open/close a long-lived editor session
//	POST /v1/session/{id}/change  apply edits to a session overlay, get diagnostics
//	GET  /metrics      Prometheus text-format counters + latency histograms
//	GET  /debug/pprof  profiling handlers (only with Config.EnablePprof)
//	GET  /debug/traces slowest-request span trees (only with Config.EnableTraces)
//	POST /debug/reload hot-swap to freshly loaded knowledge (needs Config.Loader)
//
// The handler is safe for arbitrary concurrency: all shared state (the
// pattern index, pair set, classifier) is immutable once bundled, and
// every request keeps its own statement and statistics storage. The
// knowledge bundle — system, artifact identity, and the per-file scan
// cache keyed against it — sits behind one atomic pointer: a request
// captures it at admission and uses it end to end, while Reload (SIGHUP
// or POST /debug/reload) atomically publishes a replacement, so
// knowledge hot-swaps drop no requests and never mix two artifacts
// inside one request. Repeat files
// are served from a bounded content-hash cache of analyzed per-file
// units (internal/servecache), so an editor or CI bot re-scanning a
// mostly-unchanged file set pays only for the files that changed.
// Robustness guarantees, in order of the request path: admission control
// sheds load past Config.MaxInFlight with 429 + Retry-After instead of
// queueing unboundedly; the analysis goroutine contains any panic, so a
// pathological request costs one 500, never the process; client
// disconnects are logged and dropped without 5xx accounting; scan
// deadlines surface as 503. Both analysis endpoints go through the same
// gate/decode/trace/contain pipeline — /v1/diff is not a side door.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"namer/internal/ast"
	"namer/internal/buildinfo"
	"namer/internal/core"
	"namer/internal/obs"
	"namer/internal/servecache"
	"namer/internal/session"
	"namer/internal/udiff"
)

// Config tunes the request handling limits.
type Config struct {
	// MaxBodyBytes bounds the request body size; 0 means DefaultMaxBody.
	MaxBodyBytes int64
	// ScanTimeout bounds the analysis time of one request; 0 means
	// DefaultScanTimeout.
	ScanTimeout time.Duration
	// MaxInFlight bounds how many scans execute concurrently; excess
	// requests are shed immediately with 429 + Retry-After rather than
	// queued. 0 means DefaultMaxInFlight.
	MaxInFlight int
	// CacheEntries bounds the per-file scan cache by unit count: 0 means
	// DefaultCacheEntries, negative disables the cache entirely.
	CacheEntries int
	// CacheBytes bounds the per-file scan cache by estimated resident
	// bytes; 0 or negative means DefaultCacheBytes. Ignored when the
	// cache is disabled.
	CacheBytes int64
	// Knowledge describes the artifact the initial system was loaded
	// from, reported on /healthz and /metrics.
	Knowledge KnowledgeInfo
	// Loader, when non-nil, enables hot reloading: it is invoked by
	// Reload (SIGHUP, POST /debug/reload) and must return a freshly
	// built system with the new knowledge imported. A Loader error
	// leaves the currently served bundle untouched.
	Loader func() (*core.System, KnowledgeInfo, error)
	// AccessLog, when non-nil, receives one Info record per request
	// (method, path, status, bytes, duration_ms, request_id, remote).
	// Request ids are assigned either way.
	AccessLog *slog.Logger
	// Log receives the server's own events: reloads, scan panics, client
	// cancels, and response-write errors. Nil means slog.Default(),
	// which logs to stderr unless the process installed its own.
	Log *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// EnableTraces records a span tree for every scan request into a
	// flight recorder holding the slowest recent traces, served at
	// /debug/traces (JSON list; ?id=<trace id> or ?id=slowest for a
	// Chrome trace-event export). Gated like pprof: traces reveal
	// request paths and timing structure, so they are off by default.
	EnableTraces bool
	// TraceRingSize is the flight-recorder capacity; 0 means
	// DefaultTraceRing.
	TraceRingSize int
	// MaxSessions caps concurrently open editor sessions; 0 means
	// session.DefaultMaxSessions, negative means unlimited. Opens past
	// the cap are shed with 429.
	MaxSessions int
	// SessionIdleTTL evicts sessions with no activity for this long; 0
	// means session.DefaultIdleTTL, negative disables eviction.
	SessionIdleTTL time.Duration
}

// Defaults for the zero Config.
const (
	DefaultMaxBody      = 4 << 20
	DefaultScanTimeout  = 30 * time.Second
	DefaultMaxInFlight  = 64
	DefaultTraceRing    = 32
	DefaultCacheEntries = 4096
	DefaultCacheBytes   = 256 << 20
)

// KnowledgeInfo identifies a loaded knowledge artifact for operators:
// the health endpoint, the `namer_knowledge_info` gauge, and reload
// responses all report it, so a fleet can tell which artifact each
// instance is serving.
type KnowledgeInfo struct {
	// Summary is the human-readable one-liner (path + format + hash
	// prefix) shown on /healthz.
	Summary string `json:"summary"`
	// Path is the artifact file, when loaded from one.
	Path string `json:"path,omitempty"`
	// Format names the encoding ("binary", the only one).
	Format string `json:"format,omitempty"`
	// FormatVersion is the binary codec version.
	FormatVersion int `json:"format_version,omitempty"`
	// ContentHash is the hex sha256 of the artifact bytes.
	ContentHash string `json:"content_hash,omitempty"`
	// LoadedAt is when this artifact was loaded.
	LoadedAt time.Time `json:"loaded_at"`
}

// bundle is one immutable serving unit: a system with imported
// knowledge, the per-file scan cache keyed against exactly that
// knowledge, and the artifact identity. A request captures the current
// bundle once at admission and uses it end to end, so a concurrent
// reload never mixes knowledge mid-request; the old bundle stays alive
// until its last in-flight request returns, then the GC collects it
// (and its cache) wholesale.
type bundle struct {
	sys   *core.System
	cache *servecache.Cache
	info  KnowledgeInfo
}

// Server answers scan requests against one loaded knowledge artifact.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	handler http.Handler

	// cur is the atomically swapped serving bundle. Handlers Load it
	// once per request; Reload Stores a replacement.
	cur atomic.Pointer[bundle]

	// reloadMu serializes Reload calls (SIGHUP racing the admin
	// endpoint) so two loaders never interleave their swaps.
	reloadMu sync.Mutex

	// closing is set by Close (wired to the HTTP server's shutdown):
	// once draining, reloads are refused and new sessions turned away,
	// so a SIGHUP racing the shutdown can never swap the bundle under
	// the requests being drained.
	closing atomic.Bool

	// sessions is the long-lived editor session table behind
	// /v1/session; overlay contents live here, scan state is attached
	// per file as a sessionScan.
	sessions *session.Manager

	// inflight is the admission-control semaphore: a slot is taken for
	// the lifetime of one scan, and requests that cannot take one are
	// shed with 429.
	inflight chan struct{}

	// analyze runs the parse -> scan -> classify pipeline for one
	// request against the bundle captured at admission. It is a field so
	// robustness tests can substitute a panicking or slow front-end
	// stub.
	analyze func(ctx context.Context, b *bundle, lang ast.Language, files []ScanFile, all bool) *ScanResponse

	// analyzeDiff is the /v1/diff pipeline, a field for the same reason.
	analyzeDiff func(ctx context.Context, b *bundle, lang ast.Language, files []core.DiffFile, all bool) *DiffResponse

	// cacheMetrics holds the shared cache metric hooks; every bundle's
	// cache feeds the same counters so hit/miss totals stay cumulative
	// across reloads while the size gauges track the live cache.
	cacheMetrics servecache.Metrics

	// recorder is the slow-request flight recorder behind /debug/traces;
	// nil unless Config.EnableTraces.
	recorder *obs.FlightRecorder

	// Per-server metrics (the /metrics page). They are instance-scoped,
	// so tests and multi-server processes see isolated numbers.
	metrics   *obs.Registry
	mRequests *obs.Counter
	mShed     *obs.Counter
	mPanics   *obs.Counter
	mCanceled *obs.Counter
	mTimeouts *obs.Counter
	mScans    *obs.Counter
	mViol     *obs.Counter
	mReported *obs.Counter
	mDiffReqs *obs.Counter
	mDiffViol *obs.Counter
	mReloads  *obs.Counter
	mReloadNo *obs.Counter
	gReloadOK *obs.Gauge
	gLoadedAt *obs.Gauge
	gInflight *obs.Gauge
	hRequest  *obs.Histogram
	hParse    *obs.Histogram
	hScan     *obs.Histogram
	hClassify *obs.Histogram
	hProcess  *obs.Histogram
	hMatch    *obs.Histogram
	hDiff     *obs.Histogram

	mSessionOpens   *obs.Counter
	mSessionChanges *obs.Counter
	mSessionEvict   *obs.Counter
	gSessions       *obs.Gauge
	hSessionChange  *obs.Histogram
}

// New builds a server over a system with imported knowledge. The system
// must not be mutated after this point. New installs (or, with a
// negative Config.CacheEntries, removes) the system's per-file scan
// cache: the cached units embed match output against the loaded pattern
// index, so the cache's lifetime is exactly one (system, knowledge)
// pair and a fresh Server gets a fresh cache.
func New(sys *core.System, cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBody
	}
	if cfg.ScanTimeout <= 0 {
		cfg.ScanTimeout = DefaultScanTimeout
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	sv := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		metrics:  obs.NewRegistry(),
	}
	sv.analyze = sv.doAnalyze
	sv.analyzeDiff = sv.doAnalyzeDiff

	sv.mRequests = sv.metrics.Counter("namer_scan_requests_total")
	sv.mShed = sv.metrics.Counter("namer_scan_shed_total")
	sv.mPanics = sv.metrics.Counter("namer_scan_panics_total")
	sv.mCanceled = sv.metrics.Counter("namer_scan_canceled_total")
	sv.mTimeouts = sv.metrics.Counter("namer_scan_timeouts_total")
	sv.mScans = sv.metrics.Counter("namer_scans_total")
	sv.mViol = sv.metrics.Counter("namer_violations_total")
	sv.mReported = sv.metrics.Counter("namer_reported_total")
	sv.mDiffReqs = sv.metrics.Counter("namer_diff_requests_total")
	sv.mDiffViol = sv.metrics.Counter("namer_diff_violations_total")
	sv.mReloads = sv.metrics.Counter("namer_knowledge_reloads_total")
	sv.mReloadNo = sv.metrics.Counter("namer_knowledge_reload_failures_total")
	sv.gReloadOK = sv.metrics.Gauge("namer_knowledge_reload_last_success")
	sv.gLoadedAt = sv.metrics.Gauge("namer_knowledge_loaded_timestamp_seconds")
	sv.gInflight = sv.metrics.Gauge("namer_scan_inflight")
	sv.metrics.Gauge("namer_scan_inflight_limit").Set(int64(cfg.MaxInFlight))
	sv.hRequest = sv.metrics.Histogram("namer_request_seconds", nil)
	sv.hParse = sv.metrics.Histogram(`namer_stage_seconds{stage="parse"}`, nil)
	sv.hScan = sv.metrics.Histogram(`namer_stage_seconds{stage="scan"}`, nil)
	sv.hClassify = sv.metrics.Histogram(`namer_stage_seconds{stage="classify"}`, nil)
	sv.hProcess = sv.metrics.Histogram(`namer_stage_seconds{stage="scan_process"}`, nil)
	sv.hMatch = sv.metrics.Histogram(`namer_stage_seconds{stage="scan_match"}`, nil)
	sv.hDiff = sv.metrics.Histogram(`namer_stage_seconds{stage="diff"}`, nil)

	sv.mSessionOpens = sv.metrics.Counter("namer_session_opens_total")
	sv.mSessionChanges = sv.metrics.Counter("namer_session_changes_total")
	sv.mSessionEvict = sv.metrics.Counter("namer_session_idle_evictions_total")
	sv.gSessions = sv.metrics.Gauge("namer_sessions")
	sv.hSessionChange = sv.metrics.Histogram("namer_session_change_seconds", nil)
	sv.sessions = session.NewManager(session.Config{
		MaxSessions: cfg.MaxSessions,
		IdleTTL:     cfg.SessionIdleTTL,
		Metrics: session.Metrics{
			Count:         sv.gSessions,
			IdleEvictions: sv.mSessionEvict,
		},
	})

	sv.cacheMetrics = servecache.Metrics{
		Hits:      sv.metrics.Counter("namer_cache_hits_total"),
		Misses:    sv.metrics.Counter("namer_cache_misses_total"),
		Evictions: sv.metrics.Counter("namer_cache_evictions_total"),
		Bytes:     sv.metrics.Gauge("namer_cache_bytes"),
		Entries:   sv.metrics.Gauge("namer_cache_entries"),
	}
	sv.install(sv.newBundle(sys, cfg.Knowledge), nil)
	sv.gReloadOK.Set(1)

	obs.RegisterGoMetrics(sv.metrics)
	buildinfo.Register(sv.metrics)

	sv.mux.HandleFunc("/healthz", sv.handleHealth)
	sv.mux.HandleFunc("/v1/scan", sv.handleScan)
	sv.mux.HandleFunc("/v1/diff", sv.handleDiff)
	sv.mux.HandleFunc("/v1/session", sv.handleSession)
	sv.mux.HandleFunc("/v1/session/", sv.handleSessionRoute)
	sv.mux.HandleFunc("/debug/reload", sv.handleReload)
	sv.mux.Handle("/metrics", sv.metrics.Handler())
	if cfg.EnableTraces {
		ring := cfg.TraceRingSize
		if ring <= 0 {
			ring = DefaultTraceRing
		}
		sv.recorder = obs.NewFlightRecorder(ring)
		sv.mux.Handle("/debug/traces", sv.recorder.Handler())
	}
	if cfg.EnablePprof {
		sv.mux.HandleFunc("/debug/pprof/", pprof.Index)
		sv.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		sv.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		sv.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		sv.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	sv.handler = obs.AccessLog(sv.mux, cfg.AccessLog)
	return sv
}

// Handler returns the HTTP handler for the server's endpoints, wrapped
// in the request-id / access-log middleware.
func (sv *Server) Handler() http.Handler { return sv.handler }

// Metrics exposes the server's metric registry (what /metrics renders),
// for benchmarks and embedding processes.
func (sv *Server) Metrics() *obs.Registry { return sv.metrics }

// Cache exposes the current bundle's per-file scan cache, nil when
// disabled; tests and benchmarks read its Stats. After a reload this is
// the new bundle's (fresh) cache.
func (sv *Server) Cache() *servecache.Cache { return sv.cur.Load().cache }

// Knowledge returns the identity of the artifact currently being served.
func (sv *Server) Knowledge() KnowledgeInfo { return sv.cur.Load().info }

// newBundle wraps a knowledge-imported system into a serving bundle
// with its own scan cache. The cached units embed match output against
// the bundle's pattern index, so the cache's lifetime is exactly one
// (system, knowledge) pair: every bundle gets a fresh cache, wired to
// the shared metric hooks.
func (sv *Server) newBundle(sys *core.System, info KnowledgeInfo) *bundle {
	b := &bundle{sys: sys, info: info}
	if sv.cfg.CacheEntries >= 0 {
		entries := sv.cfg.CacheEntries
		if entries == 0 {
			entries = DefaultCacheEntries
		}
		bytes := sv.cfg.CacheBytes
		if bytes <= 0 {
			bytes = DefaultCacheBytes
		}
		b.cache = servecache.New(entries, bytes)
		b.cache.SetMetrics(sv.cacheMetrics)
	}
	if b.cache != nil {
		sys.SetFileCache(b.cache)
	} else {
		// Install a true nil, not a nil *Cache boxed in the interface.
		sys.SetFileCache(nil)
	}
	return b
}

// install publishes b as the serving bundle and updates the identity
// metrics: the labeled namer_knowledge_info gauge flips to the new
// artifact (the old bundle's series drops to 0, mirroring how Prometheus
// info-style metrics express "which one is live"), and the load
// timestamp gauge follows.
func (sv *Server) install(b, old *bundle) {
	sv.cur.Store(b)
	if old != nil {
		sv.metrics.Gauge(knowledgeInfoSeries(old.info)).Set(0)
	}
	sv.metrics.Gauge(knowledgeInfoSeries(b.info)).Set(1)
	if !b.info.LoadedAt.IsZero() {
		sv.gLoadedAt.Set(b.info.LoadedAt.Unix())
	}
}

// knowledgeInfoSeries renders the labeled series name identifying an
// artifact on /metrics. The hash label is truncated: 12 hex chars keep
// the cardinality-relevant identity without bloating every scrape.
func knowledgeInfoSeries(info KnowledgeInfo) string {
	hash := info.ContentHash
	if len(hash) > 12 {
		hash = hash[:12]
	}
	return fmt.Sprintf("namer_knowledge_info{format=%q,version=%q,hash=%q}",
		info.Format, strconv.Itoa(info.FormatVersion), hash)
}

// Reload swaps in a freshly loaded knowledge bundle via Config.Loader.
// In-flight requests keep the bundle they captured at admission and
// finish against the old knowledge; new requests see the new bundle the
// moment Store completes. The scan cache rotates with the bundle — a
// cache keyed against the old pattern index is never consulted for the
// new one. On a Loader error the old bundle keeps serving untouched and
// the failure is visible on /metrics (failure counter + last-success
// gauge at 0).
func (sv *Server) Reload() (KnowledgeInfo, error) {
	sv.reloadMu.Lock()
	defer sv.reloadMu.Unlock()
	if sv.closing.Load() {
		// Graceful shutdown is in flight: the drained requests must
		// finish against the bundle they can still observe, and no
		// loader work should delay process exit.
		return KnowledgeInfo{}, errServerClosing
	}
	if sv.cfg.Loader == nil {
		return KnowledgeInfo{}, errors.New("serve: reload not configured (no knowledge loader)")
	}
	sys, info, err := sv.cfg.Loader()
	if err != nil {
		sv.mReloadNo.Inc()
		sv.gReloadOK.Set(0)
		sv.cfg.Log.Error("knowledge reload failed; still serving the old knowledge",
			"serving", sv.cur.Load().info.Summary, "err", err)
		return KnowledgeInfo{}, err
	}
	old := sv.cur.Load()
	sv.install(sv.newBundle(sys, info), old)
	sv.mReloads.Inc()
	sv.gReloadOK.Set(1)
	sv.cfg.Log.Info("knowledge reloaded", "from", old.info.Summary, "to", info.Summary)
	return info, nil
}

// handleReload is the admin endpoint POST /debug/reload: trigger a
// reload and report the outcome. 501 when no loader is configured, 500
// with the loader error on failure (the old bundle keeps serving).
func (sv *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		sv.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if sv.cfg.Loader == nil {
		sv.fail(w, http.StatusNotImplemented, "reload not configured (no knowledge loader)")
		return
	}
	info, err := sv.Reload()
	if errors.Is(err, errServerClosing) {
		sv.fail(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if err != nil {
		sv.fail(w, http.StatusInternalServerError, "reload failed: "+err.Error())
		return
	}
	sv.writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"knowledge": info,
	})
}

// ScanFile is one source file in a scan request.
type ScanFile struct {
	Path   string `json:"path"`
	Source string `json:"source"`
}

// ScanRequest is the POST /v1/scan body. Either Source (a single snippet)
// or Files must be set. Lang is optional and must match the loaded
// knowledge when present.
type ScanRequest struct {
	Lang   string     `json:"lang,omitempty"`
	Path   string     `json:"path,omitempty"`
	Source string     `json:"source,omitempty"`
	Files  []ScanFile `json:"files,omitempty"`
	// All includes violations the classifier rejects (they carry
	// "classified": false), the "w/o C" view.
	All bool `json:"all,omitempty"`
}

// ScanViolation is one reported naming issue.
type ScanViolation struct {
	Path        string `json:"path"`
	Line        int    `json:"line"`
	SourceLine  string `json:"source_line,omitempty"`
	Original    string `json:"original"`
	Suggested   string `json:"suggested"`
	PatternType string `json:"pattern_type"`
	// Fix is the full-identifier rewrite when it can be located
	// unambiguously on the line, e.g. "upload_cnt -> upload_count".
	Fix string `json:"fix,omitempty"`
	// Classified is the defect classifier's verdict; without a trained
	// classifier every violation is reported as true.
	Classified bool `json:"classified"`
}

// ScanResponse is the POST /v1/scan reply. FilesReceived counts the
// inputs in the request; FilesScanned counts the subset that parsed —
// the difference is itemized in Errors, never silently absorbed.
// CacheHits/CacheMisses report how many of the request's files were
// served from the per-file scan cache (both zero when it is disabled).
type ScanResponse struct {
	Lang          string          `json:"lang"`
	FilesReceived int             `json:"files_received"`
	FilesScanned  int             `json:"files_scanned"`
	Statements    int             `json:"statements"`
	Violations    []ScanViolation `json:"violations"`
	Errors        []string        `json:"errors,omitempty"`
	CacheHits     int             `json:"cache_hits"`
	CacheMisses   int             `json:"cache_misses"`
	ScanMillis    float64         `json:"scan_millis"`
}

// DiffFile is one changed file in a diff request: the before and after
// versions of its source. After may instead be given as Patch, a unified
// diff (`git diff` output for this file) applied server-side to Before.
type DiffFile struct {
	Path   string `json:"path"`
	Before string `json:"before"`
	After  string `json:"after,omitempty"`
	Patch  string `json:"patch,omitempty"`
}

// DiffRequest is the POST /v1/diff body.
type DiffRequest struct {
	Lang  string     `json:"lang,omitempty"`
	Files []DiffFile `json:"files"`
	// All includes introduced violations the classifier rejects.
	All bool `json:"all,omitempty"`
}

// DiffRename is one identifier rename found by aligning the before/after
// ASTs; KnownPair marks renames crossing a mined confusing-word pair.
type DiffRename struct {
	Path      string `json:"path"`
	Before    string `json:"before"`
	After     string `json:"after"`
	KnownPair bool   `json:"known_pair"`
}

// DiffResponse is the POST /v1/diff reply. Violations holds only the
// issues *introduced* by the change — present on changed after-side
// statements and not carried over from the before side.
type DiffResponse struct {
	Lang              string          `json:"lang"`
	FilesReceived     int             `json:"files_received"`
	FilesScanned      int             `json:"files_scanned"`
	Statements        int             `json:"statements"`
	ChangedStatements int             `json:"changed_statements"`
	Violations        []ScanViolation `json:"violations"`
	Renames           []DiffRename    `json:"renames,omitempty"`
	Errors            []string        `json:"errors,omitempty"`
	CacheHits         int             `json:"cache_hits"`
	CacheMisses       int             `json:"cache_misses"`
	ScanMillis        float64         `json:"scan_millis"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (sv *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	b := sv.cur.Load()
	resp := map[string]any{
		"status":     "ok",
		"lang":       b.sys.Config().Lang.String(),
		"patterns":   len(b.sys.Patterns),
		"pairs":      b.sys.Pairs.Len(),
		"classifier": b.sys.HasClassifier(),
		"knowledge":  b.info.Summary,
	}
	if b.info.Format != "" {
		resp["knowledge_format"] = b.info.Format
		resp["knowledge_format_version"] = b.info.FormatVersion
	}
	if b.info.ContentHash != "" {
		resp["knowledge_hash"] = b.info.ContentHash
	}
	if !b.info.LoadedAt.IsZero() {
		resp["knowledge_loaded_at"] = b.info.LoadedAt.UTC().Format(time.RFC3339Nano)
	}
	sv.writeJSON(w, http.StatusOK, resp)
}

// gate runs the shared request admission path: method check, then the
// in-flight semaphore. On success the caller must invoke the returned
// release function when the request is done. A bounded semaphore instead
// of a queue means saturation costs the client one cheap round trip, not
// an unbounded wait, and the daemon's memory stays flat under load.
func (sv *Server) gate(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		sv.fail(w, http.StatusMethodNotAllowed, "POST required")
		return nil, false
	}
	select {
	case sv.inflight <- struct{}{}:
		sv.gInflight.Add(1)
		return func() {
			<-sv.inflight
			sv.gInflight.Add(-1)
		}, true
	default:
		sv.mShed.Inc()
		w.Header().Set("Retry-After", "1")
		sv.fail(w, http.StatusTooManyRequests,
			fmt.Sprintf("server at capacity (%d scans in flight); retry later", sv.cfg.MaxInFlight))
		return nil, false
	}
}

// readJSON decodes the size-capped request body into v, answering 413 or
// 400 itself; it reports whether the caller should proceed.
func (sv *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, sv.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			sv.fail(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", sv.cfg.MaxBodyBytes))
			return false
		}
		sv.fail(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

// resolveLang validates an optional request language against the
// bundle's loaded knowledge, answering 400 on mismatch.
func (sv *Server) resolveLang(b *bundle, w http.ResponseWriter, reqLang string) (ast.Language, bool) {
	lang := b.sys.Config().Lang
	if reqLang == "" {
		return lang, true
	}
	got, err := ast.ParseLanguage(reqLang)
	if err != nil {
		sv.fail(w, http.StatusBadRequest, err.Error())
		return lang, false
	}
	if got != lang {
		sv.fail(w, http.StatusBadRequest, fmt.Sprintf(
			"knowledge is for %v, request is %v", lang, got))
		return lang, false
	}
	return lang, true
}

// traced wraps the request context in a span tree when the flight
// recorder is on. The trace id is the request id, so a slow request
// found in the access log can be pulled up on /debug/traces by the same
// id.
func (sv *Server) traced(ctx context.Context, root string, files int) (context.Context, *obs.Trace) {
	if sv.recorder == nil {
		return ctx, nil
	}
	ctx, tr := obs.NewTrace(ctx, root, obs.RequestID(ctx))
	tr.Root().SetAttrInt("files_received", files)
	return ctx, tr
}

// finish dispatches the analysis outcome shared by both endpoints:
// client cancels are logged and dropped without error accounting,
// deadlines surface as 503, other errors as 500, and — only on success —
// the request's trace is recorded (on timeout/cancel the abandoned
// goroutine may still be writing spans, so those traces are dropped
// rather than exported mid-write). It reports whether the caller should
// write its 200 response.
func (sv *Server) finish(w http.ResponseWriter, r *http.Request, tr *obs.Trace, err error) bool {
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			// The client went away; nobody is reading the response.
			// A disconnect is not a server error and must not trip
			// error alerts.
			sv.mCanceled.Inc()
			sv.cfg.Log.Warn("scan canceled by client", "request_id", obs.RequestID(r.Context()))
		case errors.Is(err, context.DeadlineExceeded):
			sv.mTimeouts.Inc()
			sv.fail(w, http.StatusServiceUnavailable, "scan timed out")
		default:
			sv.fail(w, http.StatusInternalServerError, err.Error())
		}
		return false
	}
	if tr != nil {
		tr.Finish()
		sv.recorder.Add(tr)
	}
	return true
}

func (sv *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	sv.mRequests.Inc()
	start := time.Now()
	defer func() { sv.hRequest.Since(start) }()

	release, ok := sv.gate(w, r)
	if !ok {
		return
	}
	defer release()

	// Capture the serving bundle once: the whole request — language
	// check, scan, classify, cache — runs against this knowledge even if
	// a reload swaps the current bundle mid-flight.
	b := sv.cur.Load()

	var req ScanRequest
	if !sv.readJSON(w, r, &req) {
		return
	}
	lang, ok := sv.resolveLang(b, w, req.Lang)
	if !ok {
		return
	}
	files := req.Files
	if req.Source != "" {
		path := req.Path
		if path == "" {
			path = "snippet" + extFor(lang)
		}
		files = append([]ScanFile{{Path: path, Source: req.Source}}, files...)
	}
	if len(files) == 0 {
		sv.fail(w, http.StatusBadRequest, `provide "source" or "files"`)
		return
	}

	ctx, tr := sv.traced(r.Context(), "scan_request", len(files))
	resp, err := run(sv, ctx, func(ctx context.Context) *ScanResponse {
		return sv.analyze(ctx, b, lang, files, req.All)
	})
	if !sv.finish(w, r, tr, err) {
		return
	}
	sv.writeJSON(w, http.StatusOK, resp)
}

func (sv *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	sv.mDiffReqs.Inc()
	start := time.Now()
	defer func() { sv.hRequest.Since(start) }()

	release, ok := sv.gate(w, r)
	if !ok {
		return
	}
	defer release()

	// Same bundle-capture discipline as handleScan.
	b := sv.cur.Load()

	var req DiffRequest
	if !sv.readJSON(w, r, &req) {
		return
	}
	lang, ok := sv.resolveLang(b, w, req.Lang)
	if !ok {
		return
	}
	if len(req.Files) == 0 {
		sv.fail(w, http.StatusBadRequest, `provide "files" with before/after versions`)
		return
	}
	pairs := make([]core.DiffFile, 0, len(req.Files))
	for _, f := range req.Files {
		if f.Path == "" {
			sv.fail(w, http.StatusBadRequest, `every diff file needs a "path"`)
			return
		}
		after := f.After
		if f.Patch != "" {
			if f.After != "" {
				sv.fail(w, http.StatusBadRequest,
					fmt.Sprintf("%s: provide either %q or %q, not both", f.Path, "after", "patch"))
				return
			}
			applied, err := udiff.Apply(f.Before, f.Patch)
			if err != nil {
				sv.fail(w, http.StatusBadRequest, fmt.Sprintf("%s: %v", f.Path, err))
				return
			}
			after = applied
		}
		pairs = append(pairs, core.DiffFile{
			Repo: "request", Path: f.Path, Before: f.Before, After: after,
		})
	}

	ctx, tr := sv.traced(r.Context(), "diff_request", len(pairs))
	resp, err := run(sv, ctx, func(ctx context.Context) *DiffResponse {
		return sv.analyzeDiff(ctx, b, lang, pairs, req.All)
	})
	if !sv.finish(w, r, tr, err) {
		return
	}
	sv.writeJSON(w, http.StatusOK, resp)
}

// errAnalysisPanic is the sanitized client-facing error for a contained
// analyzer panic: the panic value and stack go to Config.Log with the
// request id, never over the wire.
var errAnalysisPanic = errors.New("internal error analyzing request")

// run executes one analysis pipeline bounded by the configured timeout.
// The work runs in a helper goroutine so a stuck analysis cannot pin the
// handler past its deadline (the goroutine finishes in the background;
// the system has no unbounded analyses, so this is a latency bound, not
// a leak risk). The goroutine recovers its own panics: it runs outside
// net/http's per-connection recover, so an uncontained panic here —
// ScanFiles, DiffFiles, Explain, Dedup, the classifier — would kill the
// whole daemon, not just the request.
func run[T any](sv *Server, ctx context.Context, fn func(context.Context) T) (T, error) {
	ctx, cancel := context.WithTimeout(ctx, sv.cfg.ScanTimeout)
	defer cancel()

	type outcome struct {
		resp T
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				sv.mPanics.Inc()
				sv.cfg.Log.Error("scan panic", "request_id", obs.RequestID(ctx),
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				done <- outcome{err: errAnalysisPanic}
			}
		}()
		done <- outcome{resp: fn(ctx)}
	}()

	select {
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	case o := <-done:
		return o.resp, o.err
	}
}

// doAnalyze is the real /v1/scan pipeline: scan the files against the
// knowledge (the core scan path parses per file, consulting the cache
// first), then classify the violations. Each stage is a span under the
// request's trace (when the flight recorder is on) and feeds its latency
// histogram either way.
func (sv *Server) doAnalyze(ctx context.Context, b *bundle, lang ast.Language, files []ScanFile, all bool) *ScanResponse {
	start := time.Now()
	resp := &ScanResponse{
		Lang:          lang.String(),
		FilesReceived: len(files),
		Violations:    []ScanViolation{},
	}

	inputs := make([]*core.InputFile, 0, len(files))
	for _, f := range files {
		inputs = append(inputs, &core.InputFile{Repo: "request", Path: f.Path, Source: f.Source})
	}

	stage := time.Now()
	sctx, scanSpan := obs.StartSpan(ctx, "scan")
	res := b.sys.ScanFilesCtx(sctx, inputs)
	scanSpan.SetAttrInt("cache_hits", res.CacheHits)
	scanSpan.SetAttrInt("cache_misses", res.CacheMisses)
	scanSpan.End()
	sv.hScan.Since(stage)
	sv.hParse.Observe(res.Timings.Parse)
	sv.hProcess.Observe(res.Timings.Process)
	sv.hMatch.Observe(res.Timings.Match)
	resp.FilesScanned = res.FilesParsed
	resp.Statements = res.Statements
	resp.CacheHits = res.CacheHits
	resp.CacheMisses = res.CacheMisses
	for _, e := range res.Errors {
		resp.Errors = append(resp.Errors, e.Error())
	}
	sv.mScans.Inc()
	sv.mViol.Add(int64(len(res.Violations)))

	stage = time.Now()
	_, classifySpan := obs.StartSpan(ctx, "classify")
	for _, v := range res.Violations {
		classified := b.sys.ClassifyIn(res.Stats, v)
		if !classified && !all {
			continue
		}
		if classified {
			sv.mReported.Inc()
		}
		resp.Violations = append(resp.Violations, renderViolation(v, classified))
	}
	classifySpan.SetAttrInt("violations", len(res.Violations))
	classifySpan.SetAttrInt("reported", len(resp.Violations))
	classifySpan.End()
	sv.hClassify.Since(stage)

	resp.ScanMillis = float64(time.Since(start).Microseconds()) / 1000
	return resp
}

// doAnalyzeDiff is the real /v1/diff pipeline: diff-scan the file pairs
// (both sides served from the per-file cache when possible), classify
// the introduced violations against the after side's statistics, and
// attach the rename report.
func (sv *Server) doAnalyzeDiff(ctx context.Context, b *bundle, lang ast.Language, files []core.DiffFile, all bool) *DiffResponse {
	start := time.Now()
	resp := &DiffResponse{
		Lang:          lang.String(),
		FilesReceived: len(files),
		Violations:    []ScanViolation{},
	}

	stage := time.Now()
	dctx, diffSpan := obs.StartSpan(ctx, "diff")
	res := b.sys.DiffFilesCtx(dctx, files)
	diffSpan.SetAttrInt("cache_hits", res.CacheHits)
	diffSpan.SetAttrInt("cache_misses", res.CacheMisses)
	diffSpan.SetAttrInt("changed", res.Changed)
	diffSpan.End()
	sv.hDiff.Since(stage)
	sv.hParse.Observe(res.Timings.Parse)
	resp.FilesScanned = res.FilesParsed
	resp.Statements = res.Statements
	resp.ChangedStatements = res.Changed
	resp.CacheHits = res.CacheHits
	resp.CacheMisses = res.CacheMisses
	for _, e := range res.Errors {
		resp.Errors = append(resp.Errors, e.Error())
	}
	sv.mViol.Add(int64(len(res.Introduced)))
	sv.mDiffViol.Add(int64(len(res.Introduced)))

	stage = time.Now()
	_, classifySpan := obs.StartSpan(ctx, "classify")
	for _, v := range res.Introduced {
		classified := b.sys.ClassifyIn(res.Stats, v)
		if !classified && !all {
			continue
		}
		if classified {
			sv.mReported.Inc()
		}
		resp.Violations = append(resp.Violations, renderViolation(v, classified))
	}
	classifySpan.SetAttrInt("violations", len(res.Introduced))
	classifySpan.SetAttrInt("reported", len(resp.Violations))
	classifySpan.End()
	sv.hClassify.Since(stage)

	for _, rn := range res.Renames {
		resp.Renames = append(resp.Renames, DiffRename{
			Path: rn.Path, Before: rn.Before, After: rn.After, KnownPair: rn.KnownPair,
		})
	}

	resp.ScanMillis = float64(time.Since(start).Microseconds()) / 1000
	return resp
}

// renderViolation converts one core violation into its wire form.
func renderViolation(v *core.Violation, classified bool) ScanViolation {
	out := ScanViolation{
		Path:        v.Stmt.Path,
		Line:        v.Stmt.Line,
		SourceLine:  v.Stmt.SourceLine,
		Original:    v.Detail.Original,
		Suggested:   v.Detail.Suggested,
		PatternType: v.Pattern.Type.String(),
		Classified:  classified,
	}
	if from, to, ok := v.SuggestFixedName(); ok {
		out.Fix = from + " -> " + to
	}
	return out
}

// fail writes an error response; writeJSON counts its status.
func (sv *Server) fail(w http.ResponseWriter, code int, msg string) {
	sv.writeJSON(w, code, errorResponse{Error: msg})
}

// writeJSON writes a JSON response, counts the status on /metrics, and
// logs (rather than ignores) encode failures — by that point the status
// line is sent, so the error cannot reach the client.
func (sv *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	sv.metrics.Counter(fmt.Sprintf("namer_http_responses_total{status=%q}", strconv.Itoa(code))).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		sv.cfg.Log.Warn("writing response failed", "status", code, "err", err)
	}
}

// extFor returns the snippet filename extension for a language.
func extFor(lang ast.Language) string {
	switch lang {
	case ast.Java:
		return ".java"
	case ast.Go:
		return ".go"
	}
	return ".py"
}
