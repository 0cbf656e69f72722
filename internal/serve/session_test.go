package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"namer/internal/session"
)

func postJSONBody(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func openSession(t *testing.T, url string) string {
	t.Helper()
	code, data := postJSONBody(t, url+"/v1/session", SessionRequest{Op: "open"})
	if code != http.StatusOK {
		t.Fatalf("open session: %d %s", code, data)
	}
	var resp SessionResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SessionID == "" {
		t.Fatalf("open session: no id in %s", data)
	}
	return resp.SessionID
}

func postChange(t *testing.T, url, id string, req SessionChangeRequest) (int, *SessionChangeResponse, []byte) {
	t.Helper()
	code, data := postJSONBody(t, url+"/v1/session/"+id+"/change", req)
	if code != http.StatusOK {
		return code, nil, data
	}
	var resp SessionChangeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("bad change response %s: %v", data, err)
	}
	return code, &resp, data
}

func fullEdit(text string) []session.Edit { return []session.Edit{{Text: text}} }

func rangeEdit(startLine, startChar, endLine, endChar int, text string) []session.Edit {
	return []session.Edit{{
		Range: &session.Range{
			Start: session.Pos{Line: startLine, Character: startChar},
			End:   session.Pos{Line: endLine, Character: endChar},
		},
		Text: text,
	}}
}

func hashOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// sessionFixtureSource finds a corpus source that produces at least one
// diagnostic with an applicable fix edit, so the lifecycle test can
// apply the server's own proposed fix and watch the violation resolve.
func sessionFixtureSource(t *testing.T, url string, sources []string) (string, *SessionChangeResponse, string) {
	t.Helper()
	for _, src := range sources {
		id := openSession(t, url)
		code, resp, data := postChange(t, url, id, SessionChangeRequest{
			Path: "fixture.py", Edits: fullEdit(src), All: true,
		})
		if code != http.StatusOK {
			t.Fatalf("fixture change: %d %s", code, data)
		}
		for _, d := range resp.Diagnostics {
			if d.Edit != nil {
				return src, resp, id
			}
		}
		postJSONBody(t, url+"/v1/session", SessionRequest{Op: "close", SessionID: id})
	}
	t.Fatal("no corpus source produced a diagnostic with a fix edit")
	return "", nil, ""
}

// TestSessionLifecycle drives one full editor session: open, load a
// file, make an incremental edit, apply the server's proposed fix and
// watch the violation resolve, close, and get a 404 afterwards.
func TestSessionLifecycle(t *testing.T) {
	sv, sources := newTestServer(t)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	src, first, id := sessionFixtureSource(t, ts.URL, sources)
	if first.Scan != "full" {
		t.Fatalf("first scan of a file = %q, want full", first.Scan)
	}
	if first.Statements == 0 || first.ContentHash != hashOf(src) {
		t.Fatalf("first change: %d statements, hash %s", first.Statements, first.ContentHash)
	}
	// The first scan has no baseline: everything is introduced.
	if len(first.Introduced) != len(first.Diagnostics) {
		t.Fatalf("first scan introduced %d of %d diagnostics", len(first.Introduced), len(first.Diagnostics))
	}

	// An appended comment is an incremental no-op: statements reused,
	// nothing introduced or resolved, and diagnostics unchanged.
	commented := src + "# trailing comment\n"
	lastLine := strings.Count(src, "\n")
	code, second, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "fixture.py", Version: 2, All: true,
		Edits: rangeEdit(lastLine, 0, lastLine, 0, "# trailing comment\n"),
	})
	if code != http.StatusOK {
		t.Fatalf("comment edit: %d %s", code, data)
	}
	if second.Scan != "incremental" {
		t.Fatalf("comment edit scan = %q, want incremental", second.Scan)
	}
	if second.ContentHash != hashOf(commented) {
		t.Fatalf("overlay hash diverged after comment edit")
	}
	if second.ReusedStatements == 0 || second.Statements != first.Statements {
		t.Fatalf("comment edit reused %d, statements %d -> %d",
			second.ReusedStatements, first.Statements, second.Statements)
	}
	if len(second.Introduced) != 0 || second.Resolved != 0 {
		t.Fatalf("comment edit introduced %d / resolved %d", len(second.Introduced), second.Resolved)
	}
	if len(second.Diagnostics) != len(first.Diagnostics) {
		t.Fatalf("comment edit changed diagnostics: %d -> %d", len(first.Diagnostics), len(second.Diagnostics))
	}

	// Apply the server's own proposed fix for one diagnostic; the
	// violation it fixes must show up as resolved.
	var fix *SessionDiagnostic
	for i := range second.Diagnostics {
		if second.Diagnostics[i].Edit != nil {
			fix = &second.Diagnostics[i]
			break
		}
	}
	if fix == nil {
		t.Fatal("fixture lost its fix edit after the comment edit")
	}
	e := fix.Edit
	code, third, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "fixture.py", Version: 3, All: true,
		Edits: rangeEdit(e.Line, e.StartCharacter, e.Line, e.EndCharacter, e.NewText),
	})
	if code != http.StatusOK {
		t.Fatalf("fix edit: %d %s", code, data)
	}
	if third.Scan == "failed" {
		t.Fatalf("applying the proposed fix broke the parse: %s", data)
	}
	if third.Resolved == 0 {
		t.Fatalf("proposed fix resolved nothing: %s", data)
	}

	// Close, then prove the id is gone: change → 404, re-close → 404.
	code, cdata := postJSONBody(t, ts.URL+"/v1/session", SessionRequest{Op: "close", SessionID: id})
	if code != http.StatusOK {
		t.Fatalf("close: %d %s", code, cdata)
	}
	code, _, data = postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "fixture.py", Version: 4, Edits: fullEdit("x = 1\n"),
	})
	if code != http.StatusNotFound {
		t.Fatalf("change after close: %d %s", code, data)
	}
	if code, _ := postJSONBody(t, ts.URL+"/v1/session", SessionRequest{Op: "close", SessionID: id}); code != http.StatusNotFound {
		t.Fatalf("double close: %d", code)
	}
}

func TestSessionBadRequests(t *testing.T) {
	sv, _ := newStubServer(t, Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	if code, data := postJSONBody(t, ts.URL+"/v1/session", SessionRequest{Op: "suspend"}); code != http.StatusBadRequest {
		t.Fatalf("bad op: %d %s", code, data)
	}
	if code, _ := postJSONBody(t, ts.URL+"/v1/session", SessionRequest{Op: "close"}); code != http.StatusBadRequest {
		t.Fatalf("close without id: %d", code)
	}
	if code, _, _ := postChange(t, ts.URL, "s-missing", SessionChangeRequest{
		Path: "f.py", Edits: fullEdit("x = 1\n")}); code != http.StatusNotFound {
		t.Fatal("change on unknown session accepted")
	}
	resp, err := http.Get(ts.URL + "/v1/session")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/session: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/session/s-x/unknown", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad session subpath: %d", resp.StatusCode)
	}

	id := openSession(t, ts.URL)
	cases := []struct {
		name string
		req  SessionChangeRequest
		want int
	}{
		{"no path", SessionChangeRequest{Edits: fullEdit("x = 1\n")}, http.StatusBadRequest},
		{"no edits", SessionChangeRequest{Path: "f.py"}, http.StatusBadRequest},
		{"range edit before open", SessionChangeRequest{Path: "f.py",
			Edits: rangeEdit(0, 0, 0, 1, "y")}, http.StatusBadRequest},
		{"bad lang", SessionChangeRequest{Lang: "cobol", Path: "f.py",
			Edits: fullEdit("x = 1\n")}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, _, data := postChange(t, ts.URL, id, tc.req); code != tc.want {
			t.Errorf("%s: %d (%s), want %d", tc.name, code, data, tc.want)
		}
	}
	// A bad range after opening the file is a 400, and the overlay is
	// left untouched (the next good edit still works).
	postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Edits: fullEdit("a = 1\n")})
	code, _, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Version: 2, Edits: rangeEdit(7, 0, 7, 1, "y")})
	if code != http.StatusBadRequest {
		t.Fatalf("out-of-range edit: %d %s", code, data)
	}
	code, resp2, _ := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Version: 3, Edits: rangeEdit(0, 0, 0, 1, "b")})
	if code != http.StatusOK || resp2.ContentHash != hashOf("b = 1\n") {
		t.Fatalf("overlay corrupted by rejected edit: %d %+v", code, resp2)
	}
}

func TestSessionCapacity(t *testing.T) {
	sv, _ := newStubServer(t, Config{MaxSessions: 2})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	a := openSession(t, ts.URL)
	openSession(t, ts.URL)
	code, data := postJSONBody(t, ts.URL+"/v1/session", SessionRequest{Op: "open"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity open: %d %s", code, data)
	}
	postJSONBody(t, ts.URL+"/v1/session", SessionRequest{Op: "close", SessionID: a})
	if code, _ := postJSONBody(t, ts.URL+"/v1/session", SessionRequest{Op: "open"}); code != http.StatusOK {
		t.Fatalf("open after close: %d", code)
	}
}

// TestSessionSurvivesReload: a hot reload mid-session must leave the
// overlay contents intact while the scan state is rebuilt under the new
// knowledge — and with a byte-identical artifact, the diagnostics come
// out the same.
func TestSessionSurvivesReload(t *testing.T) {
	sv, sources, _ := newReloadServer(t)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	src := sources[0]
	id := openSession(t, ts.URL)
	code, first, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Version: 1, Edits: fullEdit(src), All: true,
	})
	if code != http.StatusOK {
		t.Fatalf("first change: %d %s", code, data)
	}

	if _, err := sv.Reload(); err != nil {
		t.Fatal(err)
	}

	// The next change crosses the bundle swap: the overlay content must
	// have survived (hash covers old content + this edit), the scan must
	// succeed, and — same knowledge — the diagnostics must match the
	// pre-reload set, with the delta reflecting only this edit.
	commented := src + "# after reload\n"
	lastLine := strings.Count(src, "\n")
	code, second, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Version: 2, All: true,
		Edits: rangeEdit(lastLine, 0, lastLine, 0, "# after reload\n"),
	})
	if code != http.StatusOK {
		t.Fatalf("change across reload: %d %s", code, data)
	}
	if second.ContentHash != hashOf(commented) {
		t.Fatal("overlay content did not survive the reload")
	}
	if second.Scan == "failed" {
		t.Fatalf("scan across reload failed: %s", data)
	}
	if len(second.Introduced) != 0 || second.Resolved != 0 {
		t.Fatalf("knowledge swap leaked into the edit delta: introduced %d / resolved %d",
			len(second.Introduced), second.Resolved)
	}
	if len(second.Diagnostics) != len(first.Diagnostics) {
		t.Fatalf("identical knowledge, different diagnostics across reload: %d -> %d",
			len(first.Diagnostics), len(second.Diagnostics))
	}
	// Back on one bundle: the next edit is incremental again.
	code, third, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Version: 3, All: true,
		Edits: rangeEdit(lastLine+1, 0, lastLine+1, 0, "# one more\n"),
	})
	if code != http.StatusOK || third.Scan != "incremental" {
		t.Fatalf("post-reload steady state: %d scan=%q %s", code, third.Scan, data)
	}
}

// TestSessionFailedScanRecovers: mid-keystroke garbage answers 200 with
// scan "failed" and the previous diagnostics; the next parsable edit
// recovers by splicing against the last good scan (and the overlay never
// rewinds).
func TestSessionFailedScanRecovers(t *testing.T) {
	sv, _ := newStubServer(t, Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	id := openSession(t, ts.URL)
	src := "def f(a):\n    return a\n"
	code, _, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Version: 1, Edits: fullEdit(src)})
	if code != http.StatusOK {
		t.Fatalf("open file: %d %s", code, data)
	}
	// Break the def header mid-keystroke (unbalanced paren).
	code, broken, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Version: 2, Edits: rangeEdit(0, 0, 0, 9, "def f(")})
	if code != http.StatusOK {
		t.Fatalf("broken edit: %d %s", code, data)
	}
	if broken.Scan != "failed" || len(broken.Errors) == 0 {
		t.Fatalf("broken content: scan=%q errors=%v", broken.Scan, broken.Errors)
	}
	if broken.ContentHash != hashOf("def f(\n    return a\n") {
		t.Fatal("overlay did not advance on a failed scan")
	}
	// Fix it back; the scan recovers.
	code, fixed, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Version: 3, Edits: rangeEdit(0, 0, 0, 6, "def f(a):")})
	if code != http.StatusOK {
		t.Fatalf("fixing edit: %d %s", code, data)
	}
	if fixed.Scan != "incremental" || fixed.ReusedStatements == 0 {
		t.Fatalf("recovering edit did not splice against the last good scan: %s", data)
	}
	if fixed.ContentHash != hashOf(src) {
		t.Fatalf("recovered overlay diverged: %s", data)
	}
}

// TestSessionFullResendSplices: a client that resends the whole file
// still gets the region splice — a one-line change re-analyzes only its
// region, and identical content reuses every statement.
func TestSessionFullResendSplices(t *testing.T) {
	sv, _ := newStubServer(t, Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	id := openSession(t, ts.URL)
	src := "import os\n\ndef f(a):\n    return a\n\ndef g(b):\n    return b\n"
	code, first, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Version: 1, Edits: fullEdit(src)})
	if code != http.StatusOK || first.Scan != "full" {
		t.Fatalf("open file: %d %s", code, data)
	}
	edited := strings.Replace(src, "return b", "return b + 1", 1)
	code, second, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Version: 2, Edits: fullEdit(edited)})
	if code != http.StatusOK || second.Scan != "incremental" ||
		second.ReusedStatements == 0 || second.ReusedStatements >= second.Statements {
		t.Fatalf("one-line full resend: want a partial incremental splice, got %d %s", code, data)
	}
	code, third, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "f.py", Version: 3, Edits: fullEdit(edited)})
	if code != http.StatusOK || third.Scan != "incremental" || third.ReusedStatements != third.Statements {
		t.Fatalf("identical resend: want every statement reused, got %d %s", code, data)
	}
}

// TestSessionStaleEditsStayOnTheirLine: when the latest content fails to
// parse, the reply re-renders the last good diagnostics against the new
// lines. A line inserted above a flagged statement shifts it down, so a
// fix edit computed at the old line number would rewrite the inserted
// text instead; such a diagnostic must come back without an edit.
func TestSessionStaleEditsStayOnTheirLine(t *testing.T) {
	sv, sources := newTestServer(t)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	src, first, id := sessionFixtureSource(t, ts.URL, sources)
	var fix *SessionDiagnostic
	for i := range first.Diagnostics {
		if first.Diagnostics[i].Edit != nil {
			fix = &first.Diagnostics[i]
			break
		}
	}
	e := fix.Edit
	lines := strings.Split(src, "\n")
	broken := "x = (" + lines[e.Line][e.StartCharacter:e.EndCharacter]
	code, resp, data := postChange(t, ts.URL, id, SessionChangeRequest{
		Path: "fixture.py", Version: 2, All: true,
		Edits: rangeEdit(e.Line, 0, e.Line, 0, broken+"\n"),
	})
	if code != http.StatusOK {
		t.Fatalf("broken insert: %d %s", code, data)
	}
	if resp.Scan != "failed" {
		t.Fatalf("inserting %q above %q: scan = %q, want failed", broken, fix.SourceLine, resp.Scan)
	}
	after := append(append(append([]string{}, lines[:e.Line]...), broken), lines[e.Line:]...)
	for _, d := range resp.Diagnostics {
		if d.Edit == nil {
			continue
		}
		if got := strings.TrimSpace(after[d.Edit.Line]); got != d.SourceLine {
			t.Errorf("stale edit for %q lands on line %d holding %q", d.SourceLine, d.Edit.Line, got)
		}
	}
}

// TestSessionConcurrentNoCrossTalk soaks the session subsystem: many
// concurrent sessions (far more than worker goroutines, so idle and
// active sessions mix), each editing its own distinct content, must
// never observe another session's bytes — every response's content hash
// is recomputed client-side. Run under -race this is the acceptance
// soak; zero panics allowed.
func TestSessionConcurrentNoCrossTalk(t *testing.T) {
	const sessions = 1000
	const workers = 32
	sv, _ := newStubServer(t, Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range work {
				if err := runOneSession(ts.URL, n); err != nil {
					errs <- fmt.Errorf("session %d: %w", n, err)
				}
			}
		}()
	}
	for n := 0; n < sessions; n++ {
		work <- n
	}
	close(work)
	wg.Wait()
	close(errs)
	failures := 0
	for err := range errs {
		failures++
		if failures <= 5 {
			t.Error(err)
		}
	}
	if failures > 5 {
		t.Errorf("... and %d more failures", failures-5)
	}
	if got := counterValue(t, sv.Metrics(), "namer_scan_panics_total"); got != 0 {
		t.Fatalf("panics during soak: %d", got)
	}
	if got := counterValue(t, sv.Metrics(), "namer_sessions"); got != 0 {
		t.Fatalf("%d sessions leaked after soak", got)
	}
	if got := counterValue(t, sv.Metrics(), "namer_session_changes_total"); got < sessions*3 {
		t.Fatalf("only %d changes recorded for %d sessions", got, sessions)
	}
}

// runOneSession opens a session, makes three content-hash-verified
// changes (full open, incremental append, identifier rename), and
// closes. Content embeds the session number, so any cross-session
// bleed flips the hash.
func runOneSession(url string, n int) error {
	post := func(path string, body any) (int, []byte, error) {
		data, _ := json.Marshal(body)
		resp, err := http.Post(url+path, "application/json", strings.NewReader(string(data)))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
	code, data, err := post("/v1/session", SessionRequest{Op: "open"})
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("open: %d %s (%v)", code, data, err)
	}
	var opened SessionResponse
	if err := json.Unmarshal(data, &opened); err != nil {
		return err
	}
	id := opened.SessionID

	content := fmt.Sprintf("def f%d(a):\n    v%d = a + %d\n    return v%d\n", n, n, n, n)
	change := func(version int, edits []session.Edit, want string) error {
		code, data, err := post("/v1/session/"+id+"/change", SessionChangeRequest{
			Path: "f.py", Version: version, Edits: edits,
		})
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("change v%d: %d %s (%v)", version, code, data, err)
		}
		var resp SessionChangeResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if resp.ContentHash != hashOf(want) {
			return fmt.Errorf("change v%d: overlay hash mismatch (cross-session bleed?)", version)
		}
		if resp.SessionID != id {
			return fmt.Errorf("change v%d: response for session %s", version, resp.SessionID)
		}
		return nil
	}
	if err := change(1, fullEdit(content), content); err != nil {
		return err
	}
	appended := content + fmt.Sprintf("x%d = f%d(%d)\n", n, n, n)
	lastLine := strings.Count(content, "\n")
	if err := change(2, rangeEdit(lastLine, 0, lastLine, 0,
		fmt.Sprintf("x%d = f%d(%d)\n", n, n, n)), appended); err != nil {
		return err
	}
	renamed := strings.Replace(appended, fmt.Sprintf("v%d = a", n), fmt.Sprintf("w%d = a", n), 1)
	if err := change(3, rangeEdit(1, 4, 1, 5, "w"), renamed); err != nil {
		return err
	}

	code, data, err = post("/v1/session", SessionRequest{Op: "close", SessionID: id})
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("close: %d %s (%v)", code, data, err)
	}
	return nil
}
