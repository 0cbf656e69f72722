package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"namer/internal/ast"
	"namer/internal/core"
)

// reloadLoader is a scripted Config.Loader: each call pops the next
// outcome (a system+info pair or an error).
type reloadLoader struct {
	mu    sync.Mutex
	calls int
	next  func(call int) (*core.System, KnowledgeInfo, error)
}

func (l *reloadLoader) load() (*core.System, KnowledgeInfo, error) {
	l.mu.Lock()
	call := l.calls
	l.calls++
	l.mu.Unlock()
	return l.next(call)
}

// newReloadServer builds a server whose Loader clones the test system's
// knowledge into a fresh system each call, mimicking a daemon re-reading
// its knowledge file.
func newReloadServer(t *testing.T) (*Server, []string, *reloadLoader) {
	t.Helper()
	sys, sources := newTestSystem(t)
	k, err := sys.ExportKnowledge()
	if err != nil {
		t.Fatal(err)
	}
	loader := &reloadLoader{next: func(call int) (*core.System, KnowledgeInfo, error) {
		fresh := core.NewSystem(core.DefaultConfig(ast.Python))
		if err := fresh.ImportKnowledge(k); err != nil {
			return nil, KnowledgeInfo{}, err
		}
		return fresh, KnowledgeInfo{
			Summary:       fmt.Sprintf("reloaded knowledge %d", call),
			Format:        "binary",
			FormatVersion: 2,
			ContentHash:   fmt.Sprintf("%064d", call),
			LoadedAt:      time.Now(),
		}, nil
	}}
	sv := New(sys, Config{
		Knowledge: KnowledgeInfo{
			Summary: "initial knowledge", Format: "binary", FormatVersion: 2,
			ContentHash: strings.Repeat("a", 64), LoadedAt: time.Now(),
		},
		Loader: loader.load,
	})
	return sv, sources, loader
}

// canonicalScan re-renders a scan response with the wall-clock timing
// zeroed, so byte-identity checks compare results, not latency.
func canonicalScan(t *testing.T, data []byte) string {
	t.Helper()
	var resp ScanResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("decoding scan response %s: %v", data, err)
	}
	resp.ScanMillis = 0
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func metricValue(t *testing.T, sv *Server, series string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	sv.Metrics().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimSpace(strings.TrimPrefix(line, series))
		}
	}
	return ""
}

// TestReloadSwapsBundle: a reload rotates the bundle and the scan cache,
// scan output is byte-identical across the swap (same artifact), and the
// identity metrics follow the new artifact.
func TestReloadSwapsBundle(t *testing.T) {
	sv, sources, _ := newReloadServer(t)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(ScanRequest{Source: sources[0], All: true})
	_, before := postScan(t, ts.URL, string(body))

	oldCache := sv.Cache()
	oldInfo := sv.Knowledge()
	if oldInfo.Summary != "initial knowledge" {
		t.Fatalf("initial info: %+v", oldInfo)
	}

	resp, err := http.Post(ts.URL+"/debug/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d %s", resp.StatusCode, data)
	}
	var rr struct {
		Status    string        `json:"status"`
		Knowledge KnowledgeInfo `json:"knowledge"`
	}
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "ok" || rr.Knowledge.Summary != "reloaded knowledge 0" {
		t.Fatalf("reload response: %s", data)
	}

	if sv.Cache() == oldCache {
		t.Fatal("scan cache did not rotate with the bundle")
	}
	if sv.Knowledge().Summary != "reloaded knowledge 0" {
		t.Fatalf("info after reload: %+v", sv.Knowledge())
	}

	// Identical knowledge must produce byte-identical scan output across
	// the swap (modulo wall-clock timing).
	_, after := postScan(t, ts.URL, string(body))
	if canonicalScan(t, before) != canonicalScan(t, after) {
		t.Fatalf("scan output changed across hot-swap to identical knowledge:\n%s\nvs\n%s", before, after)
	}

	if got := metricValue(t, sv, "namer_knowledge_reloads_total"); got != "1" {
		t.Fatalf("reloads_total = %q", got)
	}
	if got := metricValue(t, sv, "namer_knowledge_reload_last_success"); got != "1" {
		t.Fatalf("reload_last_success = %q", got)
	}
	oldSeries := knowledgeInfoSeries(oldInfo)
	newSeries := knowledgeInfoSeries(sv.Knowledge())
	if got := metricValue(t, sv, oldSeries); got != "0" {
		t.Fatalf("%s = %q, want 0 after swap", oldSeries, got)
	}
	if got := metricValue(t, sv, newSeries); got != "1" {
		t.Fatalf("%s = %q, want 1", newSeries, got)
	}

	// /healthz reports the new artifact's identity.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hdata, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	var health map[string]any
	if err := json.Unmarshal(hdata, &health); err != nil {
		t.Fatal(err)
	}
	if health["knowledge"] != "reloaded knowledge 0" ||
		health["knowledge_format"] != "binary" ||
		health["knowledge_hash"] != fmt.Sprintf("%064d", 0) {
		t.Fatalf("healthz after reload: %s", hdata)
	}
	if _, ok := health["knowledge_loaded_at"]; !ok {
		t.Fatalf("healthz missing knowledge_loaded_at: %s", hdata)
	}
}

// TestReloadFailureKeepsServing: a Loader error must leave the old
// bundle serving, count the failure, and drop the last-success gauge.
func TestReloadFailureKeepsServing(t *testing.T) {
	sv, sources, loader := newReloadServer(t)
	loader.next = func(int) (*core.System, KnowledgeInfo, error) {
		return nil, KnowledgeInfo{}, errors.New("artifact corrupt")
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	oldCache := sv.Cache()
	resp, err := http.Post(ts.URL+"/debug/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "artifact corrupt") {
		t.Fatalf("failed reload: %d %s", resp.StatusCode, data)
	}
	if sv.Cache() != oldCache || sv.Knowledge().Summary != "initial knowledge" {
		t.Fatal("failed reload disturbed the serving bundle")
	}
	if got := metricValue(t, sv, "namer_knowledge_reload_failures_total"); got != "1" {
		t.Fatalf("reload_failures_total = %q", got)
	}
	if got := metricValue(t, sv, "namer_knowledge_reload_last_success"); got != "0" {
		t.Fatalf("reload_last_success = %q", got)
	}

	// The daemon still answers scans.
	body, _ := json.Marshal(ScanRequest{Source: sources[0]})
	sresp, _ := postScan(t, ts.URL, string(body))
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("scan after failed reload: %d", sresp.StatusCode)
	}

	// A subsequent successful reload restores the gauge.
	loader.next = func(call int) (*core.System, KnowledgeInfo, error) {
		sys, _ := newTestSystem(t)
		return sys, KnowledgeInfo{Summary: "recovered"}, nil
	}
	if _, err := sv.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, sv, "namer_knowledge_reload_last_success"); got != "1" {
		t.Fatalf("reload_last_success after recovery = %q", got)
	}
}

// TestReloadRejectsJSONKnowledge: a knowledge file in the JSON format
// older builds wrote fails the reload with the re-mine error, and the
// old bundle keeps serving.
func TestReloadRejectsJSONKnowledge(t *testing.T) {
	sv, sources, loader := newReloadServer(t)
	path := filepath.Join(t.TempDir(), "knowledge.json")
	legacy := `{
 "lang": "Python",
 "pairs": [
  {
   "mistaken": "recieve",
   "correct": "receive",
   "count": 7
  }
 ],
 "patterns": []
}
`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	loader.next = func(int) (*core.System, KnowledgeInfo, error) {
		fresh := core.NewSystem(core.DefaultConfig(ast.Python))
		if err := fresh.LoadKnowledge(path); err != nil {
			return nil, KnowledgeInfo{}, err
		}
		return fresh, KnowledgeInfo{Summary: "reloaded"}, nil
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	oldCache := sv.Cache()
	_, err := sv.Reload()
	if err == nil || !strings.Contains(err.Error(), "JSON knowledge is no longer read") ||
		!strings.Contains(err.Error(), "re-run namer-mine") {
		t.Fatalf("reload of a JSON artifact: got %v, want the re-mine error", err)
	}
	if sv.Cache() != oldCache || sv.Knowledge().Summary != "initial knowledge" {
		t.Fatal("failed reload disturbed the serving bundle")
	}
	body, _ := json.Marshal(ScanRequest{Source: sources[0]})
	if resp, data := postScan(t, ts.URL, string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("scan after a failed JSON reload: %d %s", resp.StatusCode, data)
	}
}

// TestReloadMethodAndConfigGates: /debug/reload requires POST and a
// configured Loader.
func TestReloadMethodAndConfigGates(t *testing.T) {
	sv, _, _ := newReloadServer(t)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /debug/reload: %d", resp.StatusCode)
	}

	noLoader, _ := newTestServer(t)
	ts2 := httptest.NewServer(noLoader.Handler())
	defer ts2.Close()
	resp, err = http.Post(ts2.URL+"/debug/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without loader: %d", resp.StatusCode)
	}
	if _, err := noLoader.Reload(); err == nil {
		t.Fatal("Reload without loader succeeded")
	}
}

// TestInFlightRequestFinishesOnOldBundle: a request admitted before a
// reload completes against the bundle it captured, even though the swap
// happens mid-analysis.
func TestInFlightRequestFinishesOnOldBundle(t *testing.T) {
	sv, _, _ := newReloadServer(t)

	started := make(chan struct{})
	unblock := make(chan struct{})
	var mu sync.Mutex
	var seen []*bundle
	real := sv.analyze
	sv.analyze = func(ctx context.Context, b *bundle, lang ast.Language, files []ScanFile, all bool) *ScanResponse {
		mu.Lock()
		seen = append(seen, b)
		mu.Unlock()
		close(started)
		<-unblock
		return real(ctx, b, lang, files, all)
	}

	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	oldBundle := sv.cur.Load()
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/scan", "application/json",
			strings.NewReader(`{"source":"upload_cnt = upload_count + 1\n"}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight scan: %d", resp.StatusCode)
			}
		}
		errCh <- err
	}()

	<-started
	if _, err := sv.Reload(); err != nil {
		t.Fatal(err)
	}
	if sv.cur.Load() == oldBundle {
		t.Fatal("reload did not swap the bundle")
	}
	close(unblock)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != oldBundle {
		t.Fatal("in-flight request did not run against the bundle captured at admission")
	}
}

// TestConcurrentReloadAndScan hammers scans while reloading in a loop;
// run with -race this pins the atomic swap discipline (no torn bundle,
// no cache crossing knowledge generations).
func TestConcurrentReloadAndScan(t *testing.T) {
	sv, sources, _ := newReloadServer(t)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(ScanRequest{Source: sources[0], All: true})
	var want string
	{
		_, data := postScan(t, ts.URL, string(body))
		var resp ScanResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		resp.CacheHits, resp.CacheMisses, resp.ScanMillis = 0, 0, 0
		b, _ := json.Marshal(resp)
		want = string(b)
	}

	stop := make(chan struct{})
	reloaderDone := make(chan struct{})
	go func() {
		defer close(reloaderDone)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := sv.Reload(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Post(ts.URL+"/v1/scan", "application/json", strings.NewReader(string(body)))
				if err != nil {
					t.Error(err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scan during reload churn: %d", resp.StatusCode)
					return
				}
				var got ScanResponse
				if err := json.Unmarshal(data, &got); err != nil {
					t.Error(err)
					return
				}
				got.CacheHits, got.CacheMisses, got.ScanMillis = 0, 0, 0
				b, _ := json.Marshal(got)
				if string(b) != want {
					t.Errorf("scan output diverged during reload churn")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-reloaderDone
}
