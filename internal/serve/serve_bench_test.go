package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"namer/internal/session"
)

// driveScans fires total scan requests at the server with the given
// client concurrency, round-robining over the corpus sources, and fails
// the test on any non-200.
func driveScans(t *testing.T, url string, sources []string, total, concurrency int) {
	t.Helper()
	var wg sync.WaitGroup
	errCh := make(chan error, total)
	per := total / concurrency
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				body, _ := json.Marshal(ScanRequest{Source: sources[(w*per+i)%len(sources)], All: true})
				resp, err := http.Post(url+"/v1/scan", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("status %d", resp.StatusCode)
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
}

// serveBenchFile is the BENCH_serve.json schema: end-to-end scan
// latency quantiles read back from the daemon's own /metrics
// histograms, tracked commit over commit.
type serveBenchFile struct {
	CPUs        int     `json:"cpus"`
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	P50Millis   float64 `json:"request_p50_ms"`
	P95Millis   float64 `json:"request_p95_ms"`
	P99Millis   float64 `json:"request_p99_ms"`
	AvgMillis   float64 `json:"request_avg_ms"`
	ScanP50Ms   float64 `json:"stage_scan_p50_ms"`
	ParseP50Ms  float64 `json:"stage_parse_p50_ms"`
	ClassP50Ms  float64 `json:"stage_classify_p50_ms"`
	Shed        int64   `json:"shed"`
	Panics      int64   `json:"panics"`
	// Cache re-scan economics, measured on a cache-enabled server (the
	// request_* quantiles above run cache-disabled so they stay
	// comparable across commits): analysis latency of a full N-file
	// scan where every file misses vs the same scan with one changed
	// file, and their ratio.
	RescanFiles     int     `json:"rescan_files"`
	ColdScanP50Ms   float64 `json:"cold_scan_p50_ms"`
	WarmRescanP50Ms float64 `json:"warm_rescan_p50_ms"`
	WarmSpeedup     float64 `json:"warm_speedup"`
	// Session re-scan economics: analysis latency of one-line edits in
	// an open editor session (unchanged statements reused) vs a cold
	// /v1/scan of the same file on a cache-disabled server.
	SessionRounds      int     `json:"session_rounds"`
	SessionColdP50Ms   float64 `json:"session_cold_scan_p50_ms"`
	SessionWarmP50Ms   float64 `json:"session_warm_rescan_p50_ms"`
	SessionWarmP99Ms   float64 `json:"session_warm_rescan_p99_ms"`
	SessionWarmSpeedup float64 `json:"session_warm_speedup"`
}

func millis(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// TestWriteServeBenchJSON snapshots serve latency into the file named
// by BENCH_SERVE_JSON (make bench writes BENCH_serve.json); without the
// env var it is a no-op. The quantiles come from the server's own obs
// histograms — the same numbers /metrics exports — so the benchmark
// doubles as an end-to-end check of the observability pipeline.
func TestWriteServeBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_SERVE_JSON")
	if out == "" {
		t.Skip("set BENCH_SERVE_JSON=<file> to record serve benchmarks (make bench)")
	}
	// The request-latency block runs with the cache disabled: driveScans
	// round-robins the same sources, so a cache would turn most requests
	// into warm hits and the quantiles would stop measuring the scan
	// pipeline this file has always tracked.
	sys, sources := newTestSystem(t)
	sv := New(sys, Config{Knowledge: KnowledgeInfo{Summary: "bench knowledge"}, CacheEntries: -1})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	const total, concurrency = 160, 4
	driveScans(t, ts.URL, sources, total, concurrency)

	if n := sv.hRequest.Count(); n != total {
		t.Fatalf("request histogram saw %d observations, want %d", n, total)
	}
	file := serveBenchFile{
		CPUs:        runtime.NumCPU(),
		Requests:    total,
		Concurrency: concurrency,
		P50Millis:   millis(sv.hRequest.Quantile(0.50)),
		P95Millis:   millis(sv.hRequest.Quantile(0.95)),
		P99Millis:   millis(sv.hRequest.Quantile(0.99)),
		AvgMillis:   millis(sv.hRequest.Sum() / time.Duration(total)),
		ScanP50Ms:   millis(sv.hScan.Quantile(0.50)),
		ParseP50Ms:  millis(sv.hParse.Quantile(0.50)),
		ClassP50Ms:  millis(sv.hClassify.Quantile(0.50)),
		Shed:        sv.mShed.Value(),
		Panics:      sv.mPanics.Value(),
	}
	if file.Shed != 0 || file.Panics != 0 {
		t.Errorf("healthy bench run shed %d / panicked %d", file.Shed, file.Panics)
	}

	file.RescanFiles, file.ColdScanP50Ms, file.WarmRescanP50Ms = measureRescan(t)
	if file.WarmRescanP50Ms > 0 {
		file.WarmSpeedup = file.ColdScanP50Ms / file.WarmRescanP50Ms
	}
	if file.WarmSpeedup < 5 {
		t.Errorf("warm 1-file-change re-scan is %.1fx faster than cold (cold %.3fms, warm %.3fms), want >= 5x",
			file.WarmSpeedup, file.ColdScanP50Ms, file.WarmRescanP50Ms)
	}

	file.SessionRounds, file.SessionColdP50Ms, file.SessionWarmP50Ms, file.SessionWarmP99Ms = measureSessionRescan(t)
	if file.SessionWarmP50Ms > 0 {
		file.SessionWarmSpeedup = file.SessionColdP50Ms / file.SessionWarmP50Ms
	}
	if file.SessionWarmSpeedup < 5 {
		t.Errorf("warm session re-scan is %.1fx faster than a cold scan of the same file (cold %.3fms, warm p50 %.3fms), want >= 5x",
			file.SessionWarmSpeedup, file.SessionColdP50Ms, file.SessionWarmP50Ms)
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: p50=%.2fms p95=%.2fms p99=%.2fms cold=%.3fms warm=%.3fms (%.1fx)",
		out, file.P50Millis, file.P95Millis, file.P99Millis,
		file.ColdScanP50Ms, file.WarmRescanP50Ms, file.WarmSpeedup)
}

// measureRescan measures the cache's re-scan economics on a fresh
// cache-enabled server: the analysis latency (ScanMillis, HTTP excluded)
// of an N-file scan where every file is new vs the same scan with
// exactly one changed file, as medians over repeated rounds.
func measureRescan(t *testing.T) (files int, coldP50, warmP50 float64) {
	t.Helper()
	sys, sources := newTestSystem(t)
	sv := New(sys, Config{Knowledge: KnowledgeInfo{Summary: "bench knowledge"}})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	const nFiles, rounds = 12, 30
	if len(sources) < nFiles {
		t.Fatalf("corpus has %d sources, need %d", len(sources), nFiles)
	}
	scan := func(req ScanRequest) ScanResponse {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("bench scan: status %d, err %v (%s)", resp.StatusCode, err, data)
		}
		var out ScanResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	request := func(round int, changed int) ScanRequest {
		// A trailing comment changes the content hash without changing
		// the statements, the cheapest possible "this file was touched".
		req := ScanRequest{All: true}
		for i := 0; i < nFiles; i++ {
			src := sources[i]
			if changed < 0 || i == changed {
				src += fmt.Sprintf("\n# bench round %d.%d\n", round, i)
			}
			req.Files = append(req.Files, ScanFile{Path: fmt.Sprintf("bench%d.py", i), Source: src})
		}
		return req
	}

	// Cold: every round rewrites all files, so every file misses.
	var cold []float64
	for r := 0; r < rounds; r++ {
		out := scan(request(r, -1))
		if out.CacheHits != 0 || out.CacheMisses != nFiles {
			t.Fatalf("cold round %d: hits/misses = %d/%d, want 0/%d", r, out.CacheHits, out.CacheMisses, nFiles)
		}
		cold = append(cold, out.ScanMillis)
	}

	// Warm: prime the fixed file set once, then change one file per
	// round (request(-1, -1) is deterministic, so repeats of it hit).
	scan(request(-1, -1))
	var warm []float64
	for r := 0; r < rounds; r++ {
		req := request(-1, -1)
		req.Files[r%nFiles].Source = sources[r%nFiles] + fmt.Sprintf("\n# warm round %d\n", r)
		out := scan(req)
		if out.CacheHits != nFiles-1 || out.CacheMisses != 1 {
			t.Fatalf("warm round %d: hits/misses = %d/%d, want %d/1", r, out.CacheHits, out.CacheMisses, nFiles-1)
		}
		warm = append(warm, out.ScanMillis)
	}
	return nFiles, median(cold), median(warm)
}

// measureSessionRescan measures the editor-session re-scan economics:
// a session holds the whole corpus concatenated into one file, each
// round replaces one trailing comment line via an LSP-style range edit
// (unchanged statements reused), and the analysis latency
// (ScanMillis, HTTP excluded) is compared against cold /v1/scan of the
// same file on the same cache-disabled server.
func measureSessionRescan(t *testing.T) (rounds int, coldP50, warmP50, warmP99 float64) {
	t.Helper()
	sys, sources := newTestSystem(t)
	sv := New(sys, Config{Knowledge: KnowledgeInfo{Summary: "bench knowledge"}, CacheEntries: -1})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	// One sizeable file: a dozen corpus sources back to back, so the
	// overlay has plenty of untouched statements to reuse
	// while the per-edit latency stays editor-interactive.
	var sb bytes.Buffer
	for _, src := range sources[:min(12, len(sources))] {
		sb.WriteString(src)
	}
	src := sb.String()
	lines := bytes.Count([]byte(src), []byte("\n"))

	const n = 60
	var cold []float64
	for r := 0; r < n; r++ {
		body, _ := json.Marshal(ScanRequest{All: true, Files: []ScanFile{{
			Path: "bench.py", Source: src + fmt.Sprintf("# cold %d\n", r)}}})
		resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var out ScanResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &out) != nil {
			t.Fatalf("cold session bench scan: %d %s", resp.StatusCode, data)
		}
		cold = append(cold, out.ScanMillis)
	}

	postJSON := func(path string, body any) (int, []byte) {
		data, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	code, data := postJSON("/v1/session", SessionRequest{Op: "open"})
	var opened SessionResponse
	if code != http.StatusOK || json.Unmarshal(data, &opened) != nil {
		t.Fatalf("bench session open: %d %s", code, data)
	}
	// Load the file plus a trailing comment line the warm rounds will
	// keep replacing, so the overlay size stays fixed.
	code, data = postJSON("/v1/session/"+opened.SessionID+"/change", SessionChangeRequest{
		Path: "bench.py", Version: 1, All: true,
		Edits: []session.Edit{{Text: src + "# warm\n"}},
	})
	if code != http.StatusOK {
		t.Fatalf("bench session load: %d %s", code, data)
	}
	var warm []float64
	for r := 0; r < n; r++ {
		code, data = postJSON("/v1/session/"+opened.SessionID+"/change", SessionChangeRequest{
			Path: "bench.py", Version: r + 2, All: true,
			Edits: []session.Edit{{
				Range: &session.Range{
					Start: session.Pos{Line: lines, Character: 0},
					End:   session.Pos{Line: lines + 1, Character: 0},
				},
				Text: fmt.Sprintf("# warm %d\n", r),
			}},
		})
		var out SessionChangeResponse
		if code != http.StatusOK || json.Unmarshal(data, &out) != nil {
			t.Fatalf("warm session round %d: %d %s", r, code, data)
		}
		if out.Scan != "incremental" {
			t.Fatalf("warm session round %d: scan=%q, want incremental (%s)", r, out.Scan, data)
		}
		warm = append(warm, out.ScanMillis)
	}
	return n, median(cold), median(warm), quantile(warm, 0.99)
}

func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// BenchmarkServeScan measures one end-to-end scan request (HTTP round
// trip included) against mined knowledge.
func BenchmarkServeScan(b *testing.B) {
	sv, sources := newTestServer(b)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(ScanRequest{Source: sources[0], All: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
