package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"namer/internal/ast"
	"namer/internal/confusion"
	"namer/internal/core"
	"namer/internal/obs"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing logs from
// concurrent handlers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newStubServer builds a Server over an empty system (no mined
// knowledge, fast to construct) so robustness tests can substitute the
// analysis function without paying for corpus mining.
func newStubServer(t *testing.T, cfg Config) (*Server, *syncBuffer) {
	t.Helper()
	logs := &syncBuffer{}
	cfg.Log = slog.New(slog.NewTextHandler(logs, nil))
	sys := core.NewSystem(core.DefaultConfig(ast.Python))
	sys.Pairs = confusion.NewPairSet()
	return New(sys, cfg), logs
}

// counterValue reads one series back out of the /metrics text, -1 when
// the series is absent.
func counterValue(t *testing.T, reg *obs.Registry, series string) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, series+" %d", &v); n == 1 {
			return v
		}
	}
	return -1
}

// TestScanPanicContained is the regression test for the daemon-killing
// bug: a panic inside the scan goroutine (anything past ParseSource —
// ScanFiles, Explain, Dedup, the classifier) ran outside net/http's
// handler recover, so one bad request crashed the process. Now it must
// cost that request a sanitized 500 and nothing else.
func TestScanPanicContained(t *testing.T) {
	sv, logs := newStubServer(t, Config{})
	real := sv.analyze
	sv.analyze = func(ctx context.Context, b *bundle, lang ast.Language, files []ScanFile, all bool) *ScanResponse {
		if strings.HasPrefix(files[0].Path, "panic") {
			panic("analyzer exploded: secret internal state")
		}
		return real(ctx, b, lang, files, all)
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(ScanRequest{Files: []ScanFile{{Path: "panic.py", Source: "x = 1\n"}}})
	resp, data := postScan(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: got %d want 500 (%s)", resp.StatusCode, data)
	}
	var e errorResponse
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Fatalf("500 body not a JSON error: %s", data)
	}
	// The client sees a sanitized message; the panic value stays in the
	// server log (with a stack) for the operator.
	if strings.Contains(e.Error, "secret internal state") {
		t.Errorf("panic value leaked to the client: %q", e.Error)
	}
	if !strings.Contains(logs.String(), "secret internal state") ||
		!strings.Contains(logs.String(), "goroutine") {
		t.Errorf("panic value/stack missing from error log:\n%s", logs.String())
	}
	if got := counterValue(t, sv.Metrics(), "namer_scan_panics_total"); got != 1 {
		t.Errorf("namer_scan_panics_total = %d, want 1", got)
	}

	// The daemon survives: liveness and healthy scans keep working.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d", hresp.StatusCode)
	}
	body2, _ := json.Marshal(ScanRequest{Source: "x = 1\n"})
	resp2, data2 := postScan(t, ts.URL, string(body2))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthy scan after panic: %d (%s)", resp2.StatusCode, data2)
	}
}

// TestScanClientCancelDropped: a client disconnect surfaces as
// context.Canceled and must be logged and dropped — no 500, no
// bad-request accounting (it is not the server's failure).
func TestScanClientCancelDropped(t *testing.T) {
	sv, logs := newStubServer(t, Config{})
	entered := make(chan struct{}, 1)
	sv.analyze = func(ctx context.Context, b *bundle, lang ast.Language, files []ScanFile, all bool) *ScanResponse {
		entered <- struct{}{}
		<-ctx.Done() // hang until the client gives up
		return &ScanResponse{Lang: lang.String()}
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(ScanRequest{Source: "x = 1\n"})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/scan", bytes.NewReader(body))
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	<-entered // the handler is inside the scan
	cancel()  // client walks away
	if err := <-errCh; err == nil {
		t.Fatal("canceled request did not error on the client side")
	}

	// The handler notices asynchronously; poll the canceled counter.
	deadline := time.Now().Add(5 * time.Second)
	for counterValue(t, sv.Metrics(), "namer_scan_canceled_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("canceled scan never counted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var buf bytes.Buffer
	if err := sv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, `namer_http_responses_total{status="4`) ||
			strings.HasPrefix(line, `namer_http_responses_total{status="5`) {
			t.Errorf("client cancel counted an error response: %s", line)
		}
	}
	if !strings.Contains(logs.String(), "canceled by client") {
		t.Errorf("cancel not logged:\n%s", logs.String())
	}
}

// TestScanDeadlineExceeded503: a scan that outlives ScanTimeout is a
// server-side capacity problem and answers 503, not 500.
func TestScanDeadlineExceeded503(t *testing.T) {
	sv, _ := newStubServer(t, Config{ScanTimeout: 30 * time.Millisecond})
	sv.analyze = func(ctx context.Context, b *bundle, lang ast.Language, files []ScanFile, all bool) *ScanResponse {
		<-ctx.Done()
		return &ScanResponse{Lang: lang.String()}
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(ScanRequest{Source: "x = 1\n"})
	resp, data := postScan(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out scan: got %d want 503 (%s)", resp.StatusCode, data)
	}
	if got := counterValue(t, sv.Metrics(), "namer_scan_timeouts_total"); got != 1 {
		t.Errorf("namer_scan_timeouts_total = %d, want 1", got)
	}
}

// TestMaxInFlightSheds429: with MaxInFlight scans admitted and held,
// further requests shed immediately with 429 + Retry-After; they never
// queue. Once a slot frees, requests are admitted again — so 429s
// appear only past the limit.
func TestMaxInFlightSheds429(t *testing.T) {
	const limit = 2
	sv, _ := newStubServer(t, Config{MaxInFlight: limit})
	entered := make(chan struct{}, limit)
	release := make(chan struct{})
	sv.analyze = func(ctx context.Context, b *bundle, lang ast.Language, files []ScanFile, all bool) *ScanResponse {
		entered <- struct{}{}
		<-release
		return &ScanResponse{Lang: lang.String()}
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(ScanRequest{Source: "x = 1\n"})

	// Fill every slot and wait until both scans are provably inside.
	admitted := make(chan int, limit)
	for i := 0; i < limit; i++ {
		go func() {
			resp, _ := postScan(t, ts.URL, string(body))
			admitted <- resp.StatusCode
		}()
	}
	for i := 0; i < limit; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("admitted scans never started")
		}
	}

	// Saturated: every further request is shed, promptly, with the
	// retry hint — and none of them ever reaches the analyzer.
	const extra = 4
	for i := 0; i < extra; i++ {
		resp, data := postScan(t, ts.URL, string(body))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d past limit: got %d want 429 (%s)", i, resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("429 without Retry-After header")
		}
	}
	if got := counterValue(t, sv.Metrics(), "namer_scan_shed_total"); got != extra {
		t.Errorf("namer_scan_shed_total = %d, want %d", got, extra)
	}
	if got := counterValue(t, sv.Metrics(), "namer_scan_inflight"); got != limit {
		t.Errorf("namer_scan_inflight = %d, want %d", got, limit)
	}

	// Draining the held scans frees the slots: the original requests
	// complete with 200 and a fresh request is admitted again.
	close(release)
	for i := 0; i < limit; i++ {
		if code := <-admitted; code != http.StatusOK {
			t.Errorf("admitted request finished with %d, want 200", code)
		}
	}
	resp, data := postScan(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after drain: got %d want 200 (%s)", resp.StatusCode, data)
	}
	if got := counterValue(t, sv.Metrics(), "namer_scan_inflight"); got != 0 {
		t.Errorf("namer_scan_inflight after drain = %d, want 0", got)
	}
}

// TestServeSoak mixes panicking, slow, and healthy requests from
// concurrent clients while hammering /healthz: the daemon must answer
// liveness 200 throughout and classify every scan outcome correctly.
func TestServeSoak(t *testing.T) {
	sv, _ := newStubServer(t, Config{MaxInFlight: 32})
	real := sv.analyze
	sv.analyze = func(ctx context.Context, b *bundle, lang ast.Language, files []ScanFile, all bool) *ScanResponse {
		switch {
		case strings.HasPrefix(files[0].Path, "panic"):
			panic("soak boom")
		case strings.HasPrefix(files[0].Path, "slow"):
			select {
			case <-ctx.Done():
			case <-time.After(10 * time.Millisecond):
			}
			return &ScanResponse{Lang: lang.String(), FilesReceived: len(files), FilesScanned: len(files)}
		}
		return real(ctx, b, lang, files, all)
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	stopHealth := make(chan struct{})
	healthErr := make(chan error, 1)
	go func() {
		defer close(healthErr)
		for {
			select {
			case <-stopHealth:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				healthErr <- fmt.Errorf("healthz died: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				healthErr <- fmt.Errorf("healthz = %d mid-soak", resp.StatusCode)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	kinds := []string{"panic.py", "slow.py", "ok.py"}
	const workers, perWorker = 4, 15
	var panics int64
	errCh := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				kind := kinds[(w+i)%len(kinds)]
				body, _ := json.Marshal(ScanRequest{Files: []ScanFile{{Path: kind, Source: "x = 1\n"}}})
				resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				want := http.StatusOK
				if strings.HasPrefix(kind, "panic") {
					want = http.StatusInternalServerError
					mu.Lock()
					panics++
					mu.Unlock()
				}
				if resp.StatusCode != want {
					errCh <- fmt.Errorf("%s: got %d want %d", kind, resp.StatusCode, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	close(stopHealth)
	if err, ok := <-healthErr; ok && err != nil {
		t.Fatal(err)
	}

	if got := counterValue(t, sv.Metrics(), "namer_scan_panics_total"); got != panics {
		t.Errorf("namer_scan_panics_total = %d, want %d", got, panics)
	}
	// Still alive and still serving scans after the abuse.
	body, _ := json.Marshal(ScanRequest{Source: "x = 1\n"})
	resp, data := postScan(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-soak scan: %d (%s)", resp.StatusCode, data)
	}
}

// TestMetricsEndpoint: one real scan populates the request counters and
// every stage histogram, the access log captures the requests as JSON,
// and every /metrics sample line is parsable.
func TestMetricsEndpoint(t *testing.T) {
	sv, sources := newTestServer(t)
	access := &syncBuffer{}
	sv.cfg.AccessLog = slog.New(slog.NewJSONHandler(access, nil))
	sv.handler = obs.AccessLog(sv.mux, sv.cfg.AccessLog)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(ScanRequest{Source: sources[0], All: true})
	resp, data := postScan(t, ts.URL, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: %d (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("scan response missing X-Request-Id")
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	out := string(raw)
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", mresp.StatusCode)
	}
	for _, want := range []string{
		"namer_scan_requests_total 1",
		"namer_scans_total 1",
		`namer_http_responses_total{status="200"} 1`,
		`namer_stage_seconds_bucket{stage="parse",le="+Inf"} 1`,
		`namer_stage_seconds_bucket{stage="scan",le="+Inf"} 1`,
		`namer_stage_seconds_bucket{stage="classify",le="+Inf"} 1`,
		`namer_stage_seconds_bucket{stage="scan_process",le="+Inf"} 1`,
		`namer_stage_seconds_bucket{stage="scan_match",le="+Inf"} 1`,
		"namer_request_seconds_count 1",
		"namer_scan_inflight 0",
		fmt.Sprintf("namer_scan_inflight_limit %d", DefaultMaxInFlight),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparsable metrics line: %q", line)
		}
	}

	// Access log: one JSON entry per request (scan + metrics scrape).
	lines := strings.Split(strings.TrimSpace(access.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("access log has %d lines, want >= 2: %q", len(lines), access.String())
	}
	var first struct {
		Method    string `json:"method"`
		Path      string `json:"path"`
		Status    int    `json:"status"`
		Bytes     int64  `json:"bytes"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("access line not JSON: %q: %v", lines[0], err)
	}
	if first.Method != "POST" || first.Path != "/v1/scan" || first.Status != 200 ||
		first.RequestID == "" || first.Bytes <= 0 {
		t.Errorf("bad access entry: %+v", first)
	}
}

// TestPprofGated: the profiling handlers exist only when EnablePprof is
// set — an internet-facing daemon must not expose them by accident.
func TestPprofGated(t *testing.T) {
	off, _ := newStubServer(t, Config{})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp, err := http.Get(tsOff.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without flag: got %d want 404", resp.StatusCode)
	}

	on, _ := newStubServer(t, Config{EnablePprof: true})
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	resp2, err := http.Get(tsOn.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof with flag: got %d want 200", resp2.StatusCode)
	}
}
