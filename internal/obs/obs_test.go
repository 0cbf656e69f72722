package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Add(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.Set(11)
	if got := g.Value(); got != 11 {
		t.Fatalf("gauge = %d, want 11", got)
	}
}

// TestHistogramBucketDeterminism pins the exact bucket placement and
// quantile interpolation for a fixed observation set: the serving
// metrics must be reproducible, not approximately right.
func TestHistogramBucketDeterminism(t *testing.T) {
	h := NewHistogram([]time.Duration{
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	})
	obs := []time.Duration{
		500 * time.Microsecond, // bucket 0 (<= 1ms)
		time.Millisecond,       // bucket 0 (boundary is inclusive)
		2 * time.Millisecond,   // bucket 1
		5 * time.Millisecond,   // bucket 1
		50 * time.Millisecond,  // bucket 2
		time.Second,            // +Inf bucket
		-time.Second,           // clamped to 0, bucket 0
	}
	for _, d := range obs {
		h.Observe(d)
	}
	want := []int64{3, 2, 1, 1}
	if got := h.bucketCounts(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("bucket counts = %v, want %v", got, want)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 2*time.Millisecond +
		5*time.Millisecond + 50*time.Millisecond + time.Second
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}

	// Quantiles interpolate linearly inside the target bucket.
	// p50: rank 3.5 lands at the very end of bucket 0 (cum 3) plus
	// 0.5/2 of bucket 1 (1ms..10ms) = 1ms + 2.25ms.
	if got, want := h.Quantile(0.50), 3250*time.Microsecond; got != want {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	// p95: rank 6.65 is in the +Inf bucket -> clamps to the last bound.
	if got, want := h.Quantile(0.95), 100*time.Millisecond; got != want {
		t.Errorf("p95 = %v, want %v", got, want)
	}
	// rank exactly at a cumulative boundary stays in the earlier bucket:
	// q=3/7 -> rank 3.0 -> end of bucket 0.
	if got, want := h.Quantile(3.0/7.0), time.Millisecond; got != want {
		t.Errorf("q(3/7) = %v, want %v", got, want)
	}
}

func TestHistogramEmptyAndConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

// promLine matches one non-comment Prometheus text-format sample.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+$`)

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`requests_total{code="200"}`).Add(3)
	r.Counter(`requests_total{code="500"}`).Inc()
	r.Gauge("inflight").Set(2)
	h := r.Histogram(`stage_seconds{stage="scan"}`, []time.Duration{time.Millisecond, time.Second})
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Second)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE requests_total counter\n",
		`requests_total{code="200"} 3`,
		`requests_total{code="500"} 1`,
		"# TYPE inflight gauge\n",
		"inflight 2",
		"# TYPE stage_seconds histogram\n",
		`stage_seconds_bucket{stage="scan",le="0.001"} 1`,
		`stage_seconds_bucket{stage="scan",le="1"} 1`,
		`stage_seconds_bucket{stage="scan",le="+Inf"} 2`,
		`stage_seconds_sum{stage="scan"} 2.0005`,
		`stage_seconds_count{stage="scan"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// One TYPE line per family even with several labeled series.
	if n := strings.Count(out, "# TYPE requests_total"); n != 1 {
		t.Errorf("requests_total has %d TYPE lines, want 1", n)
	}
	// Every sample line must parse.
	for sc := bufio.NewScanner(strings.NewReader(out)); sc.Scan(); {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparsable sample line: %q", line)
		}
	}

	// Same-name-different-kind is a programming error and panics.
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge(`requests_total{code="200"}`)
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("ticks_total").Add(9)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(buf.String(), "ticks_total 9") {
		t.Errorf("missing series: %s", buf.String())
	}
}

func TestAccessLogMiddleware(t *testing.T) {
	var buf bytes.Buffer
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if RequestID(r.Context()) == "" {
			t.Error("no request id in handler context")
		}
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	})
	ts := httptest.NewServer(AccessLog(inner, slog.New(slog.NewJSONHandler(&buf, nil))))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/scan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("no X-Request-Id response header")
	}

	var e struct {
		Time      string  `json:"time"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		Bytes     int64   `json:"bytes"`
		DurMillis float64 `json:"duration_ms"`
		RequestID string  `json:"request_id"`
		Remote    string  `json:"remote"`
	}
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatalf("access line not JSON: %q: %v", buf.String(), err)
	}
	if e.Method != "GET" || e.Path != "/v1/scan" || e.Status != http.StatusTeapot || e.Remote == "" {
		t.Errorf("bad entry: %+v", e)
	}
	if e.Bytes != int64(len("short and stout")) {
		t.Errorf("bytes = %d", e.Bytes)
	}
	if e.RequestID == "" || e.RequestID != resp.Header.Get("X-Request-Id") {
		t.Errorf("request id mismatch: %q vs header %q", e.RequestID, resp.Header.Get("X-Request-Id"))
	}
	if e.DurMillis < 0 {
		t.Errorf("negative duration: %v", e.DurMillis)
	}
	if _, err := time.Parse(time.RFC3339Nano, e.Time); err != nil {
		t.Errorf("bad timestamp %q: %v", e.Time, err)
	}

	// nil logger: ids still assigned, nothing logged.
	buf.Reset()
	ts2 := httptest.NewServer(AccessLog(inner, nil))
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-Id") == "" {
		t.Error("nil-logger middleware dropped request ids")
	}
	if buf.Len() != 0 {
		t.Errorf("nil-logger middleware logged: %q", buf.String())
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := newRequestID()
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

// Label values containing the exposition format's three special
// characters must be escaped on output, and FormatLabels/ParseLabels
// must round-trip arbitrary values — the fix for the raw-value writer.
func TestLabelValueEscapingRoundTrip(t *testing.T) {
	values := []string{
		`plain`,
		`with "quotes"`,
		`back\slash`,
		"line1\nline2",
		`every\thing "mixed" \n literal` + "\nreal",
		``,
		`trailing\`,
	}
	for _, v := range values {
		block := FormatLabels("path", v, "kind", "k")
		keys, vals, ok := ParseLabels(block)
		if !ok {
			t.Fatalf("ParseLabels(%q) failed (from value %q)", block, v)
		}
		if len(keys) != 2 || keys[0] != "path" || vals[0] != v || vals[1] != "k" {
			t.Fatalf("round trip broke: %q -> %q -> %v %v", v, block, keys, vals)
		}
		if strings.Contains(block, "\n") {
			t.Fatalf("FormatLabels left a raw newline in %q", block)
		}
	}
}

// A series registered with hostile label values must scrape as parseable
// exposition text: one line, escaped value, decodable back to the raw
// string.
func TestRegistryEscapesLabelValues(t *testing.T) {
	r := NewRegistry()
	raw := "a\\b \"c\"\nd"
	r.Counter("weird_total{" + FormatLabels("path", raw) + "}").Add(3)
	// A caller that bypassed FormatLabels and embedded a raw newline:
	// the writer must still emit a single escaped line.
	r.Gauge("raw_gauge{k=\"x\ny\"}").Set(1)
	r.Histogram("esc_seconds{"+FormatLabels("stage", raw)+"}", []time.Duration{time.Millisecond}).Observe(0)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		brace := strings.IndexByte(line, '{')
		if brace < 0 {
			continue
		}
		end := strings.LastIndexByte(line, '}')
		if end < brace {
			t.Fatalf("unterminated label block: %q", line)
		}
		if _, _, ok := ParseLabels(line[brace+1 : end]); !ok {
			t.Fatalf("unparsable label block in line %q", line)
		}
	}
	if !strings.Contains(out, `weird_total{path="a\\b \"c\"\nd"} 3`) {
		t.Fatalf("counter label not escaped:\n%s", out)
	}
	if !strings.Contains(out, `raw_gauge{k="x\ny"} 1`) {
		t.Fatalf("raw newline not escaped:\n%s", out)
	}
	// Histogram extra `le` label merges after the escaped stage label.
	if !strings.Contains(out, `esc_seconds_bucket{stage="a\\b \"c\"\nd",le="0.001"} 1`) {
		t.Fatalf("histogram label not escaped:\n%s", out)
	}
	// Decode back: the escaped value must parse to the raw original.
	_, vals, ok := ParseLabels(`path="a\\b \"c\"\nd"`)
	if !ok || vals[0] != raw {
		t.Fatalf("escaped output does not decode to the raw value: %v %q", ok, vals)
	}
}
