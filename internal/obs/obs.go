// Package obs is the stdlib-only observability layer of the serving
// stack: monotonic counters, gauges, fixed-bucket latency histograms
// with quantile estimation, a registry that renders everything in the
// Prometheus text exposition format, an HTTP middleware that assigns
// request ids and logs one access record per request, and NewLogger,
// which builds the log/slog logger every command writes through.
//
// Everything is safe for concurrent use. Counters and histograms are
// lock-free on the hot path (atomic adds); the registry takes a mutex
// only on metric creation and on scrape. There are no third-party
// dependencies: the package exists so the daemon can be observed in
// production without pulling a client library into the build.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use, but counters should normally come from Registry.Counter so
// they appear on /metrics.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0; negative deltas are
// ignored to keep the counter monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (in-flight requests, open
// connections).
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (either sign).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBuckets covers serving latencies from 100µs to 30s,
// roughly exponential. The final +Inf bucket is implicit.
var DefaultLatencyBuckets = []time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Buckets are cumulative
// upper bounds in the Prometheus style; observations beyond the last
// bound land in the implicit +Inf bucket. Observe is lock-free.
type Histogram struct {
	bounds []time.Duration // sorted upper bounds, +Inf implicit
	counts []atomic.Int64  // len(bounds)+1, last is +Inf
	sum    atomic.Int64    // nanoseconds
	total  atomic.Int64
}

// NewHistogram builds a histogram over the given sorted upper bounds.
// Passing nil uses DefaultLatencyBuckets.
func NewHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing: %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]time.Duration(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.total.Add(1)
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-quantile from the bucket counts by linear
// interpolation inside the target bucket, the same estimate
// Prometheus' histogram_quantile computes. The edge cases are pinned,
// never NaN and never extrapolated beyond the bucket layout:
//
//   - an empty histogram returns 0 for every q;
//   - q <= 0 returns 0 and q > 1 is clamped to 1;
//   - ranks landing in the +Inf bucket — including a histogram whose
//     observations all overflowed the last finite bound — clamp to
//     that largest finite bound rather than extrapolating.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n < rank {
			cum += n
			continue
		}
		if i == len(h.bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			return h.bounds[len(h.bounds)-1]
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if n == 0 {
			// Unreachable for q > 0 (an empty bucket cannot move cum
			// past the rank), kept as a defined floor: no observation
			// means no interpolation above the bucket's lower bound.
			return lo
		}
		frac := (rank - cum) / n
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return h.bounds[len(h.bounds)-1]
}

// bucketCounts returns the per-bucket (non-cumulative) counts,
// including the +Inf bucket, as a snapshot.
func (h *Histogram) bucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Since is shorthand for Observe(time.Since(start)).
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// metricKind discriminates registry entries for the # TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered series: a base name, an optional label set
// (the `k="v",...` inside the braces), and the metric itself.
type entry struct {
	base   string
	labels string
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics and renders them in the Prometheus text
// format. Series names may carry labels inline: Counter(`x{code="200"}`)
// and Counter(`x{code="500"}`) are two series of one metric family.
type Registry struct {
	mu        sync.Mutex
	entries   map[string]*entry // full name -> entry
	order     []string          // insertion order of full names
	scrapeFns []func()          // run before each scrape snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

// splitName separates `base{labels}` into base and the inner labels
// (without braces); names without braces have empty labels.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// get returns the entry for name, creating it (and its metric, under
// the registry lock — concurrent first uses of one series must agree on
// the object) with kind when absent. A name registered twice with
// different kinds panics: that is a programming error, not a runtime
// condition. bounds only applies to histograms.
func (r *Registry) get(name string, kind metricKind, bounds []time.Duration) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, kind, e.kind))
		}
		return e
	}
	base, labels := splitName(name)
	e := &entry{base: base, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = NewHistogram(bounds)
	}
	r.entries[name] = e
	r.order = append(r.order, name)
	return e
}

// Counter returns the counter series with the given name (which may
// include labels), creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return r.get(name, kindCounter, nil).c
}

// Gauge returns the gauge series with the given name, creating it on
// first use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.get(name, kindGauge, nil).g
}

// Histogram returns the histogram series with the given name, creating
// it over bounds (nil = DefaultLatencyBuckets) on first use.
func (r *Registry) Histogram(name string, bounds []time.Duration) *Histogram {
	return r.get(name, kindHistogram, bounds).h
}

// OnScrape registers fn to run at the start of every WritePrometheus
// call, before the snapshot is taken — the hook for sampled metrics
// (runtime stats) that would be wasteful to keep current continuously.
// fn must only touch already-created metrics (Set/Add/Observe).
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.scrapeFns = append(r.scrapeFns, fn)
	r.mu.Unlock()
}

// seconds renders a duration as a float seconds literal.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%g", d.Seconds())
}

// EscapeLabelValue escapes a raw label value per the Prometheus text
// exposition format: backslash, double quote, and line feed become
// `\\`, `\"`, and `\n`. Everything else passes through verbatim.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// FormatLabels renders alternating key, value pairs as the inside of a
// label block — `k1="v1",k2="v2"` — escaping each raw value for the
// exposition format. Use it to build labeled series names from values
// that may contain quotes, backslashes, or newlines:
//
//	reg.Gauge("info{" + obs.FormatLabels("path", path) + "}")
//
// An odd trailing key is dropped.
func FormatLabels(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// labelPair is one parsed k="v" with the value in raw (unescaped) form.
type labelPair struct {
	key, value string
}

// ParseLabels parses the inside of a label block (`k1="v1",k2="v2"`)
// into key/raw-value pairs, decoding the exposition-format escapes
// (`\\`, `\"`, `\n`); unknown backslash sequences keep the backslash,
// matching Prometheus' parser. ok is false when the block is malformed
// (unquoted values, missing '='), in which case the caller should treat
// the block as opaque. FormatLabels and ParseLabels round-trip any
// value.
func ParseLabels(s string) (keys, values []string, ok bool) {
	pairs, ok := parseLabelPairs(s)
	if !ok {
		return nil, nil, false
	}
	for _, p := range pairs {
		keys = append(keys, p.key)
		values = append(values, p.value)
	}
	return keys, values, true
}

func parseLabelPairs(s string) ([]labelPair, bool) {
	var pairs []labelPair
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, false
		}
		key := strings.TrimSpace(s[i : i+eq])
		i += eq + 1
		if key == "" || i >= len(s) || s[i] != '"' {
			return nil, false
		}
		i++ // opening quote
		var val strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '"' {
				closed = true
				i++
				break
			}
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte('\\')
					val.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, false
		}
		pairs = append(pairs, labelPair{key: key, value: val.String()})
		if i < len(s) {
			if s[i] != ',' {
				return nil, false
			}
			i++
		}
	}
	return pairs, true
}

// canonicalLabels re-renders a label block with every value decoded and
// re-escaped, so raw quotes, backslashes, and newlines that reached the
// registry inside a series name can never corrupt the exposition
// output. Malformed blocks are returned unchanged (the historical
// behaviour) rather than guessed at.
func canonicalLabels(labels string) string {
	if labels == "" || !strings.ContainsAny(labels, "\\\n") {
		// Fast path: nothing to decode and nothing needing escape — a
		// block without backslashes or newlines renders identically.
		return labels
	}
	pairs, ok := parseLabelPairs(labels)
	if !ok {
		return labels
	}
	kv := make([]string, 0, len(pairs)*2)
	for _, p := range pairs {
		kv = append(kv, p.key, p.value)
	}
	return FormatLabels(kv...)
}

// mergeLabels joins a series' own labels with an extra label into one
// brace block, or returns "" when both are empty. The series labels are
// canonicalized (parsed and re-escaped) on the way out.
func mergeLabels(labels, extra string) string {
	labels = canonicalLabels(labels)
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	}
	return "{" + labels + "," + extra + "}"
}

// WritePrometheus renders every registered series in the text
// exposition format, families sorted by name with one # TYPE line each.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fns := r.scrapeFns
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}

	r.mu.Lock()
	names := append([]string(nil), r.order...)
	entries := make([]*entry, len(names))
	for i, n := range names {
		entries[i] = r.entries[n]
	}
	r.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool {
		if entries[i].base != entries[j].base {
			return entries[i].base < entries[j].base
		}
		return entries[i].labels < entries[j].labels
	})

	bw := bufio.NewWriter(w)
	lastBase := ""
	for _, e := range entries {
		if e.base != lastBase {
			fmt.Fprintf(bw, "# TYPE %s %s\n", e.base, e.kind)
			lastBase = e.base
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s%s %d\n", e.base, mergeLabels(e.labels, ""), e.c.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s%s %d\n", e.base, mergeLabels(e.labels, ""), e.g.Value())
		case kindHistogram:
			var cum int64
			counts := e.h.bucketCounts()
			for i, n := range counts {
				cum += n
				le := "+Inf"
				if i < len(e.h.bounds) {
					le = seconds(e.h.bounds[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n",
					e.base, mergeLabels(e.labels, fmt.Sprintf("le=%q", le)), cum)
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", e.base, mergeLabels(e.labels, ""), seconds(e.h.Sum()))
			fmt.Fprintf(bw, "%s_count%s %d\n", e.base, mergeLabels(e.labels, ""), cum)
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler that serves the registry as a
// Prometheus scrape target (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
