// Command namer-serve is the always-on serving daemon over mined
// knowledge: it loads a knowledge artifact (produced by namer-mine /
// namer-train) once at startup and answers HTTP scan
// requests until terminated.
//
//	namer-serve -knowledge knowledge.bin -addr :8737
//
//	curl -X POST localhost:8737/v1/scan \
//	     -d '{"lang":"python","source":"upload_cnt = upload_count + 1\n"}'
//
// POST /v1/diff takes before/after versions of files (or a unified
// diff via "patch") and reports only the violations *introduced* by
// the change, plus identifier renames found by AST alignment. Repeat
// file contents across requests are served from a bounded per-file
// scan cache (-cache-entries / -cache-bytes; hit/miss/eviction
// counters and size gauges on /metrics).
//
// POST /v1/session opens a long-lived editor session (close it the same
// way), and POST /v1/session/{id}/change applies didChange-style edits
// to a per-session file overlay, re-scanning just the touched file —
// whole, with the diagnostics /v1/scan would give, but walking and
// matching only the statements that changed since the last good scan,
// whether the client sent ranges or the whole file — and answering with
// push-style diagnostics, proposed-fix text edits, and the introduced/resolved
// delta against the session's previous scan. Sessions idle past
// -session-idle are evicted; -max-sessions caps how many are open.
//
// Liveness is at /healthz, Prometheus counters and latency histograms
// at /metrics, and profiling at /debug/pprof (only with -pprof). With
// -traces, a flight recorder keeps the span trees of the slowest recent
// requests at /debug/traces (JSON list; ?id=<X-Request-Id> or
// ?id=slowest for a Chrome trace export). Every request gets an
// X-Request-Id and one JSON access-log record (-access-log, default
// stdout). Everything else — startup, reloads, contained panics, client
// cancels, net/http's own errors — is logged on stderr through one
// log/slog logger set by -log-level and -log-format. Load past
// -max-inflight concurrent scans is shed with 429 + Retry-After.
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, and
// in-flight scans are given a grace period to finish responding.
// SIGHUP (or POST /debug/reload) re-reads the knowledge file and
// hot-swaps it atomically: in-flight requests finish against the old
// knowledge, new requests see the new artifact, the scan cache rotates
// with it, and no request is dropped. The loaded artifact's format
// version, content hash, and load time are reported on /healthz and as
// the namer_knowledge_info gauge on /metrics.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"syscall"
	"time"

	"namer/internal/ast"
	"namer/internal/buildinfo"
	"namer/internal/core"
	"namer/internal/knowledge"
	"namer/internal/obs"
	"namer/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8737", "listen address (host:port; port 0 picks a free port)")
	kpath := flag.String("knowledge", "knowledge.bin", "knowledge file from namer-mine/namer-train")
	maxBody := flag.Int64("max-body", serve.DefaultMaxBody, "maximum request body size in bytes")
	scanTimeout := flag.Duration("scan-timeout", serve.DefaultScanTimeout, "per-request scan deadline")
	maxInFlight := flag.Int("max-inflight", serve.DefaultMaxInFlight,
		"concurrent scan limit; excess requests are shed with 429")
	cacheEntries := flag.Int("cache-entries", serve.DefaultCacheEntries,
		"per-file scan cache capacity in files; 0 disables the cache")
	cacheBytes := flag.Int64("cache-bytes", serve.DefaultCacheBytes,
		"per-file scan cache capacity in estimated bytes")
	accessLog := flag.String("access-log", "stdout",
		"JSON access log destination: stdout, stderr, off, or a file path")
	pprofFlag := flag.Bool("pprof", false, "expose profiling handlers under /debug/pprof/")
	tracesFlag := flag.Bool("traces", false,
		"record span trees of the slowest requests and serve them at /debug/traces")
	traceRing := flag.Int("trace-ring", serve.DefaultTraceRing,
		"how many slowest-request traces the flight recorder keeps")
	maxSessions := flag.Int("max-sessions", 0,
		"concurrently open editor sessions; 0 uses the default, negative is unlimited")
	sessionIdle := flag.Duration("session-idle", 0,
		"evict editor sessions idle longer than this; 0 uses the default, negative disables")
	grace := flag.Duration("grace", 15*time.Second, "shutdown grace period for in-flight requests")
	readyFile := flag.String("ready-file", "",
		"write the bound address to this file once listening (for scripts using port 0)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("namer-serve", buildinfo.String())
		return
	}
	lg, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		obs.Fatal(nil, err)
	}
	// The server's own records (serve.Config.Log left nil) and net/http's
	// error lines go through the default logger: make it this one, so
	// -log-level and -log-format govern every line on stderr.
	slog.SetDefault(lg)

	sys, kinfo, err := loadKnowledgeSystem(*kpath)
	if err != nil {
		obs.Fatal(lg, fmt.Errorf("loading knowledge: %w (run namer-mine first)", err))
	}
	lg.Info("loaded knowledge", "summary", kinfo.Summary)

	logw, err := obs.OpenLogWriter(*accessLog)
	if err != nil {
		obs.Fatal(lg, fmt.Errorf("opening access log: %w", err))
	}
	var access *slog.Logger
	if logw != nil {
		access = slog.New(slog.NewJSONHandler(logw, nil))
	}
	entries := *cacheEntries
	if entries == 0 {
		entries = -1 // flag semantics: 0 disables; Config semantics: negative disables
	}
	sv := serve.New(sys, serve.Config{
		MaxBodyBytes: *maxBody,
		ScanTimeout:  *scanTimeout,
		MaxInFlight:  *maxInFlight,
		CacheEntries: entries,
		CacheBytes:   *cacheBytes,
		Knowledge:    kinfo,
		Loader: func() (*core.System, serve.KnowledgeInfo, error) {
			return loadKnowledgeSystem(*kpath)
		},
		AccessLog:      access,
		EnablePprof:    *pprofFlag,
		EnableTraces:   *tracesFlag,
		TraceRingSize:  *traceRing,
		MaxSessions:    *maxSessions,
		SessionIdleTTL: *sessionIdle,
	})
	// SIGHUP re-reads the knowledge file and hot-swaps the serving
	// bundle; POST /debug/reload does the same over HTTP. In-flight
	// requests finish against the old knowledge either way.
	stopReload := serve.ReloadOnSignal(func() error {
		_, err := sv.Reload()
		return err
	}, syscall.SIGHUP)
	defer stopReload()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		obs.Fatal(lg, err)
	}
	bound := ln.Addr().String()
	lg.Info("listening", "url", "http://"+bound,
		"endpoints", "POST /v1/scan, POST /v1/diff, POST /v1/session, GET /healthz, GET /metrics")
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			obs.Fatal(lg, err)
		}
	}

	srv := serve.NewHTTPServer(sv.Handler(), *scanTimeout)
	serve.TrackConnections(srv, sv.Metrics())
	// A SIGHUP arriving while the graceful shutdown drains must not swap
	// the bundle under the in-flight requests or leak the signal
	// watcher: the moment Shutdown starts, stop the watcher and mark the
	// server draining (further reloads are refused).
	srv.RegisterOnShutdown(func() {
		stopReload()
		sv.Close()
	})
	if err := serve.RunUntilSignal(srv, ln, *grace, os.Interrupt, syscall.SIGTERM); err != nil {
		obs.Fatal(lg, err)
	}
	lg.Info("shut down cleanly")
}

// loadKnowledgeSystem builds a fresh system from the knowledge file:
// the artifact determines the language, the default config supplies the
// analysis settings (points-to on, per §4.1). Used for the initial load
// and for every SIGHUP / POST /debug/reload hot-swap; on error the
// caller keeps whatever it was serving.
func loadKnowledgeSystem(path string) (*core.System, serve.KnowledgeInfo, error) {
	k, info, err := knowledge.LoadWithInfo(path)
	if err != nil {
		return nil, serve.KnowledgeInfo{}, err
	}
	// One scan per request, each on one goroutine: the server's
	// concurrency comes from its requests, not from per-scan workers.
	cfg := core.DefaultConfig(ast.Python)
	cfg.Parallelism = 1
	sys := core.NewSystem(cfg)
	if err := sys.ImportKnowledge(k); err != nil {
		return nil, serve.KnowledgeInfo{}, err
	}
	ki := serve.KnowledgeInfo{
		Path:          path,
		Format:        "binary",
		FormatVersion: knowledge.Version,
		ContentHash:   info.ContentHash,
		LoadedAt:      info.LoadedAt,
	}
	hash := info.ContentHash
	if len(hash) > 12 {
		hash = hash[:12]
	}
	ki.Summary = fmt.Sprintf("%s (binary v%d format, sha256 %s, %s, %d patterns, %d pairs, classifier=%v)",
		path, knowledge.Version, hash, sys.Config().Lang, len(sys.Patterns),
		sys.Pairs.Len(), sys.HasClassifier())
	return sys, ki, nil
}
