// Long-lived editor sessions: POST /v1/session opens or closes a
// session, POST /v1/session/{id}/change applies didChange-style edits
// to one file overlay and answers with push-style diagnostics. A change
// is the interactive sibling of /v1/scan + /v1/diff in one round trip:
// the touched file is re-analyzed whole, reusing the statements of the
// last good analysis that did not change (see core.AnalyzeOverlayCtx),
// so the diagnostics equal /v1/scan's for the same content. The result
// is diffed against the session's previous scan of that file by
// statement fingerprint, and the response carries the full diagnostic
// set plus the introduced/resolved delta and proposed-fix text edits.
//
// Changes run through the exact pipeline the scan endpoints use —
// admission gate, body cap, tracing span, panic-contained analysis
// goroutine, deadline — so a thousand editor sessions obey the same
// -max-inflight budget as batch scans. Session scan state is pinned to
// the knowledge bundle it was computed under: a hot reload leaves the
// overlay *contents* untouched but invalidates the scan state lazily —
// the first change after a swap rebuilds its diff baseline under the
// new knowledge, so diagnostics never mix two artifacts. Overlay
// analyses are not published to the shared per-file scan cache, which
// holds only the front-end units of scans.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"strings"
	"time"

	"namer/internal/core"
	"namer/internal/obs"
	"namer/internal/session"
)

// sessionScan is the per-file scan state a session stores between
// changes (the opaque value handed through session.Change.Prev).
type sessionScan struct {
	// bun is the knowledge bundle the analysis was computed under; a
	// mismatch with the bundle captured at admission means a hot reload
	// happened and the diff baseline must be rebuilt.
	bun *bundle
	// analysis is the last successful analysis of this overlay file;
	// nil until one scan succeeds. After failed scans the overlay has
	// moved past the content it was computed from; the next scan reuses
	// its statements all the same, since they are matched by content,
	// not by line.
	analysis *core.FileAnalysis
}

// SessionRequest is the POST /v1/session body.
type SessionRequest struct {
	// Op is "open" or "close".
	Op string `json:"op"`
	// SessionID identifies the session to close.
	SessionID string `json:"session_id,omitempty"`
}

// SessionResponse is the POST /v1/session reply.
type SessionResponse struct {
	Status    string `json:"status"`
	SessionID string `json:"session_id,omitempty"`
	// Sessions is the number of open sessions after the operation.
	Sessions int `json:"sessions"`
}

// SessionChangeRequest is the POST /v1/session/{id}/change body: one
// batch of edits to one file overlay. The first change to a path must
// carry a full-content edit (nil range); later changes may use
// LSP-style ranges.
type SessionChangeRequest struct {
	Lang    string         `json:"lang,omitempty"`
	Path    string         `json:"path"`
	Version int            `json:"version,omitempty"`
	Edits   []session.Edit `json:"edits"`
	// All includes diagnostics the classifier rejects.
	All bool `json:"all,omitempty"`
}

// TextEdit is a proposed fix as an LSP-style edit: replace
// [StartCharacter, EndCharacter) on Line (all zero-based) with NewText.
type TextEdit struct {
	Line           int    `json:"line"`
	StartCharacter int    `json:"start_character"`
	EndCharacter   int    `json:"end_character"`
	NewText        string `json:"new_text"`
}

// SessionDiagnostic is one violation in a change response, with the
// proposed fix as an applicable text edit when the flagged identifier
// can be located unambiguously on its line.
type SessionDiagnostic struct {
	ScanViolation
	Edit *TextEdit `json:"edit,omitempty"`
}

// SessionChangeResponse is the POST /v1/session/{id}/change reply.
// Diagnostics is the file's full current set (push-style — it replaces
// whatever the client showed before); Introduced/Resolved is the delta
// against this session's previous scan of the file, by statement
// fingerprint, with the same carried-over semantics as /v1/diff.
type SessionChangeResponse struct {
	SessionID string `json:"session_id"`
	Path      string `json:"path"`
	Version   int    `json:"version"`
	// ContentHash is the hex sha256 of the post-edit overlay content,
	// for clients to detect desync (and tests to detect cross-talk).
	ContentHash string `json:"content_hash"`
	// Scan reports how the change was analyzed: "incremental" (the
	// statements of the last good scan were reused where unchanged),
	// "full" (no previous scan to reuse), or "failed" (the new content
	// does not parse; Diagnostics holds the previous scan's set,
	// possibly with stale line numbers, and Errors says why). Either
	// way a successful scan's diagnostics equal /v1/scan's.
	Scan             string              `json:"scan"`
	Statements       int                 `json:"statements"`
	ReusedStatements int                 `json:"reused_statements"`
	Diagnostics      []SessionDiagnostic `json:"diagnostics"`
	Introduced       []SessionDiagnostic `json:"introduced"`
	Resolved         int                 `json:"resolved"`
	Errors           []string            `json:"errors,omitempty"`
	ScanMillis       float64             `json:"scan_millis"`
}

// handleSession answers POST /v1/session: open a new session or close
// an existing one.
func (sv *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		sv.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req SessionRequest
	if !sv.readJSON(w, r, &req) {
		return
	}
	switch req.Op {
	case "open":
		if sv.closing.Load() {
			sv.fail(w, http.StatusServiceUnavailable, "server shutting down")
			return
		}
		s, err := sv.sessions.Open()
		if err != nil {
			w.Header().Set("Retry-After", "1")
			sv.fail(w, http.StatusTooManyRequests, err.Error())
			return
		}
		sv.mSessionOpens.Inc()
		sv.writeJSON(w, http.StatusOK, SessionResponse{
			Status: "ok", SessionID: s.ID(), Sessions: sv.sessions.Len(),
		})
	case "close":
		if req.SessionID == "" {
			sv.fail(w, http.StatusBadRequest, `"close" needs a "session_id"`)
			return
		}
		if !sv.sessions.Close(req.SessionID) {
			sv.fail(w, http.StatusNotFound, "unknown session "+req.SessionID)
			return
		}
		sv.writeJSON(w, http.StatusOK, SessionResponse{
			Status: "ok", Sessions: sv.sessions.Len(),
		})
	default:
		sv.fail(w, http.StatusBadRequest, `"op" must be "open" or "close"`)
	}
}

// handleSessionRoute dispatches /v1/session/{id}/change.
func (sv *Server) handleSessionRoute(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/session/")
	id, op, ok := strings.Cut(rest, "/")
	if !ok || id == "" || op != "change" {
		sv.fail(w, http.StatusNotFound, "unknown session endpoint (want /v1/session/{id}/change)")
		return
	}
	sv.handleSessionChange(w, r, id)
}

// handleSessionChange applies one edit batch and answers with
// diagnostics. It shares the scan endpoints' full pipeline: admission
// gate, bundle capture, body cap, tracing, panic containment, deadline.
func (sv *Server) handleSessionChange(w http.ResponseWriter, r *http.Request, id string) {
	sv.mSessionChanges.Inc()
	start := time.Now()
	defer func() { sv.hRequest.Since(start) }()

	release, ok := sv.gate(w, r)
	if !ok {
		return
	}
	defer release()
	defer func() { sv.hSessionChange.Since(start) }()

	// Same bundle-capture discipline as handleScan: the whole change —
	// scan, baseline rebuild, classify — runs against this knowledge.
	b := sv.cur.Load()

	sess, ok := sv.sessions.Get(id)
	if !ok {
		sv.fail(w, http.StatusNotFound, "unknown session "+id)
		return
	}
	var req SessionChangeRequest
	if !sv.readJSON(w, r, &req) {
		return
	}
	if _, ok := sv.resolveLang(b, w, req.Lang); !ok {
		return
	}
	if req.Path == "" {
		sv.fail(w, http.StatusBadRequest, `a change needs a "path"`)
		return
	}
	if len(req.Edits) == 0 {
		sv.fail(w, http.StatusBadRequest, `a change needs "edits"`)
		return
	}

	ctx, tr := sv.traced(r.Context(), "session_change", 1)
	type changeOutcome struct {
		resp    *SessionChangeResponse
		editErr error
	}
	out, err := run(sv, ctx, func(ctx context.Context) changeOutcome {
		var resp *SessionChangeResponse
		editErr := sess.Update(req.Path, req.Version, req.Edits, func(ch *session.Change) any {
			state, r := sv.scanChange(ctx, b, sess.ID(), &req, ch)
			resp = r
			return state
		})
		return changeOutcome{resp: resp, editErr: editErr}
	})
	if !sv.finish(w, r, tr, err) {
		return
	}
	if out.editErr != nil {
		// Edit application problems are client errors: a bad range, a
		// range edit on a file the session never opened.
		sv.fail(w, http.StatusBadRequest, out.editErr.Error())
		return
	}
	sv.writeJSON(w, http.StatusOK, out.resp)
}

// scanChange analyzes one applied change and builds both the new scan
// state and the response. It runs inside the session lock (ordering
// edits within the session) and inside run's panic/deadline containment.
func (sv *Server) scanChange(ctx context.Context, b *bundle, sid string, req *SessionChangeRequest, ch *session.Change) (*sessionScan, *SessionChangeResponse) {
	start := time.Now()
	sum := sha256.Sum256([]byte(ch.After))
	resp := &SessionChangeResponse{
		SessionID:   sid,
		Path:        ch.Path,
		Version:     ch.Version,
		ContentHash: hex.EncodeToString(sum[:]),
		Diagnostics: []SessionDiagnostic{},
		Introduced:  []SessionDiagnostic{},
	}

	// Establish the diff baseline, which is also the analysis whose
	// statements the new content reuses.
	prev, _ := ch.Prev.(*sessionScan)
	var base *core.FileAnalysis
	switch {
	case prev != nil && prev.analysis != nil && prev.bun == b:
		base = prev.analysis
	case prev != nil && prev.analysis != nil:
		// A hot reload swapped the knowledge since the last scan: the
		// overlay content survives, the scan state does not. Rebuild
		// the baseline from the pre-edit content under the *new*
		// bundle, so Introduced/Resolved reflects the edit rather than
		// the knowledge swap — the same semantics /v1/diff would give
		// for before/after under current knowledge.
		if ba, err := b.sys.AnalyzeOverlayCtx(ctx,
			&core.InputFile{Repo: "session", Path: ch.Path, Source: ch.Before}, nil); err == nil {
			base = ba.Analysis
		}
	}

	cur, err := b.sys.AnalyzeOverlayCtx(ctx,
		&core.InputFile{Repo: "session", Path: ch.Path, Source: ch.After}, base)
	if err != nil {
		// The new content does not parse (mid-keystroke syntax). Keep
		// the last good analysis as the baseline; the next parsable
		// state reuses its statements.
		resp.Scan = "failed"
		resp.Errors = append(resp.Errors, err.Error())
		if base != nil {
			resp.Statements = len(base.Stmts)
			afterLines := strings.Split(ch.After, "\n")
			resp.Diagnostics = sv.renderStaleDiags(b, base, afterLines, req.All)
		}
		resp.ScanMillis = float64(time.Since(start).Microseconds()) / 1000
		return &sessionScan{bun: b, analysis: base}, resp
	}

	if cur.Incremental {
		resp.Scan = "incremental"
	} else {
		resp.Scan = "full"
	}
	resp.Statements = cur.Statements
	resp.ReusedStatements = cur.ReusedStatements
	afterLines := strings.Split(ch.After, "\n")

	_, classifySpan := obs.StartSpan(ctx, "classify")
	resp.Diagnostics = sv.renderChangeDiags(b, cur, cur.Violations, afterLines, req.All)
	if base != nil {
		introduced, _ := core.IntroducedViolations(
			base.Statements(), cur.Analysis.Statements(),
			base.RawViolations(), cur.Analysis.RawViolations())
		resolved, _ := core.IntroducedViolations(
			cur.Analysis.Statements(), base.Statements(),
			cur.Analysis.RawViolations(), base.RawViolations())
		resp.Introduced = sv.renderChangeDiags(b, cur, introduced, afterLines, req.All)
		resp.Resolved = len(resolved)
	} else {
		// First scan of this file in the session: everything is new.
		resp.Introduced = resp.Diagnostics
	}
	classifySpan.SetAttrInt("diagnostics", len(resp.Diagnostics))
	classifySpan.End()

	sv.mViol.Add(int64(len(cur.Violations)))
	resp.ScanMillis = float64(time.Since(start).Microseconds()) / 1000
	return &sessionScan{bun: b, analysis: cur.Analysis}, resp
}

// renderChangeDiags classifies violations against the overlay's own
// statistics and renders them with proposed-fix text edits.
func (sv *Server) renderChangeDiags(b *bundle, cur *core.OverlayResult, vs []*core.Violation, afterLines []string, all bool) []SessionDiagnostic {
	out := []SessionDiagnostic{}
	for _, v := range vs {
		classified := b.sys.ClassifyIn(cur.Stats, v)
		if !classified && !all {
			continue
		}
		if classified {
			sv.mReported.Inc()
		}
		out = append(out, sessionDiagnostic(v, classified, afterLines))
	}
	return out
}

// renderStaleDiags re-renders the last good analysis's diagnostics
// after a failed scan (the client keeps its previous squiggles, line
// numbers possibly stale), classified against that analysis's own
// replayed statistics.
func (sv *Server) renderStaleDiags(b *bundle, base *core.FileAnalysis, afterLines []string, all bool) []SessionDiagnostic {
	stats := base.Stats()
	out := []SessionDiagnostic{}
	for _, v := range core.Dedup(base.RawViolations()) {
		classified := b.sys.ClassifyIn(stats, v)
		if !classified && !all {
			continue
		}
		out = append(out, sessionDiagnostic(v, classified, afterLines))
	}
	return out
}

// sessionDiagnostic renders one violation, attaching the proposed fix
// as a text edit when the flagged identifier occurs exactly once on its
// (current) line.
func sessionDiagnostic(v *core.Violation, classified bool, afterLines []string) SessionDiagnostic {
	d := SessionDiagnostic{ScanViolation: renderViolation(v, classified)}
	from, to, ok := v.SuggestFixedName()
	if !ok {
		return d
	}
	// A stale diagnostic (the latest content failed to parse) may point
	// at a line that now holds other text; attach an edit only where the
	// flagged statement still sits.
	line := v.Stmt.Line - 1
	if line < 0 || line >= len(afterLines) ||
		strings.TrimSpace(afterLines[line]) != v.Stmt.SourceLine {
		return d
	}
	text := afterLines[line]
	col := strings.Index(text, from)
	if col < 0 || strings.Index(text[col+len(from):], from) >= 0 {
		return d
	}
	d.Edit = &TextEdit{
		Line:           line,
		StartCharacter: col,
		EndCharacter:   col + len(from),
		NewText:        to,
	}
	return d
}

// Close marks the server as draining: further reloads are refused (and
// a reload already in flight is waited out), and new sessions are
// turned away, while in-flight and subsequent scans keep answering
// until the HTTP server finishes its graceful shutdown. Wire it to
// http.Server.RegisterOnShutdown together with the ReloadOnSignal stop
// function, so a SIGHUP racing a shutdown can never swap the bundle
// under requests that are being drained.
func (sv *Server) Close() error {
	sv.closing.Store(true)
	// Taking the reload mutex waits out any reload currently swapping;
	// after Close returns the bundle pointer is final.
	sv.reloadMu.Lock()
	defer sv.reloadMu.Unlock()
	return nil
}

// errServerClosing is returned by Reload once Close has been called.
var errServerClosing = errors.New("serve: server shutting down")
