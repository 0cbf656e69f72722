package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the pipeline tracing layer: context-carried spans over
// one Trace, recorded into a flat per-trace buffer (one short mutex
// section per span start), with two exporters — Chrome trace-event JSON
// for chrome://tracing / Perfetto and a compact text tree for logs —
// plus a flight recorder that keeps the N slowest recent traces for
// the daemon's /debug/traces endpoint.
//
// Tracing is strictly opt-in per call tree: a context that never passed
// through NewTrace carries no span, StartSpan returns a nil *Span, and
// every Span method is a nil-safe no-op. The disabled path performs one
// context value lookup and zero allocations, so instrumentation can sit
// on warm paths (per-file, per-shard) without a config switch.

// DefaultMaxSpans bounds the per-trace span buffer; spans started past
// the cap are dropped (counted in Dropped) rather than growing a
// pathological request's trace without bound.
const DefaultMaxSpans = 16384

// spanCtxKey carries the current *Span in a context.
type spanCtxKey struct{}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed region of a trace. A span is owned by the goroutine
// that started it: SetAttr/End must be called from that goroutine (the
// trace-level buffer handles cross-goroutine span creation). All methods
// are no-ops on a nil receiver, the disabled-tracing fast path.
type Span struct {
	tr     *Trace
	id     int32
	parent int32 // -1 for the root
	name   string
	start  time.Time
	dur    time.Duration
	ended  bool
	attrs  []Attr
}

// Trace is one trace: a root span plus every descendant, recorded in
// start order. Creating spans from concurrent goroutines is safe; the
// exporters must only run after the work feeding the trace has finished
// (Finish provides the natural barrier). A trace can additionally carry
// external lanes — span batches recorded by other processes (worker
// subprocesses) and shipped back over the wire — which the Chrome
// exporter renders under their real PIDs next to this process's lanes.
type Trace struct {
	id   string
	name string

	mu       sync.Mutex
	spans    []*Span
	dropped  int
	maxSpans int
	external []externalBatch

	start time.Time
	end   time.Time // zero until Finish
	root  *Span
}

// externalBatch is one shipped span batch from another process.
type externalBatch struct {
	pid   int
	label string
	spans []WireSpan
}

// NewTrace starts a trace with a root span of the given name and binds
// it to the returned context: StartSpan calls below that context attach
// child spans. An empty id mints a process-unique one (the same scheme
// as request ids).
func NewTrace(ctx context.Context, name, id string) (context.Context, *Trace) {
	if id == "" {
		id = newRequestID()
	}
	t := &Trace{id: id, name: name, maxSpans: DefaultMaxSpans, start: time.Now()}
	t.root = &Span{tr: t, id: 0, parent: -1, name: name, start: t.start}
	t.spans = append(t.spans, t.root)
	return context.WithValue(ctx, spanCtxKey{}, t.root), t
}

// SpanFromContext returns the current span, or nil outside a trace.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's current span and returns a
// context carrying the child. Outside a trace (or once the trace's span
// budget is exhausted) it returns the context unchanged and a nil span,
// at the cost of one context lookup and no allocations.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	child := parent.tr.newSpan(name, parent.id)
	if child == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanCtxKey{}, child), child
}

// newSpan records a span in the trace buffer, or returns nil once the
// buffer is full.
func (t *Trace) newSpan(name string, parent int32) *Span {
	s := &Span{tr: t, parent: parent, name: name, start: time.Now()}
	t.mu.Lock()
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	s.id = int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// SetAttr annotates the span; no-op when nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value; no-op when nil
// (the formatting cost is only paid when tracing is live).
func (s *Span) SetAttrInt(key string, value int) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.Itoa(value)})
}

// End closes the span, recording its duration. Idempotent; no-op when
// nil.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
}

// Duration returns the recorded duration; ok is false for a nil
// (disabled) span or one that has not ended yet.
func (s *Span) Duration() (time.Duration, bool) {
	if s == nil || !s.ended {
		return 0, false
	}
	return s.dur, true
}

// Name returns the span name ("" when nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the trace id.
func (t *Trace) ID() string { return t.id }

// Name returns the root span name.
func (t *Trace) Name() string { return t.name }

// Start returns when the trace began.
func (t *Trace) Start() time.Time { return t.start }

// Root returns the root span (for attaching attributes to the whole
// trace).
func (t *Trace) Root() *Span { return t.root }

// SetMaxSpans raises or lowers the span budget (default
// DefaultMaxSpans); spans already recorded are kept even if over the
// new cap.
func (t *Trace) SetMaxSpans(n int) {
	t.mu.Lock()
	t.maxSpans = n
	t.mu.Unlock()
}

// Finish ends the root span and stamps the trace end time. Call it
// after all work feeding the trace has completed; it is the
// happens-before edge the exporters rely on.
func (t *Trace) Finish() {
	t.root.End()
	t.mu.Lock()
	if t.end.IsZero() {
		t.end = time.Now()
	}
	t.mu.Unlock()
}

// Duration is the root span's duration (elapsed-so-far before Finish).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	end := t.end
	t.mu.Unlock()
	if end.IsZero() {
		return time.Since(t.start)
	}
	return end.Sub(t.start)
}

// SpanCount returns how many spans were recorded (including the root).
func (t *Trace) SpanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans were discarded over the buffer cap.
func (t *Trace) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanInfo is an exported snapshot of one span, for tests and tools
// that aggregate trace data.
type SpanInfo struct {
	ID       int
	Parent   int // -1 for the root
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// Spans snapshots every recorded span in start (= record) order. Spans
// that never ended are reported as ending at the trace end.
func (t *Trace) Spans() []SpanInfo {
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	end := t.end
	t.mu.Unlock()
	out := make([]SpanInfo, len(spans))
	for i, s := range spans {
		d := s.dur
		if !s.ended {
			if !end.IsZero() && end.After(s.start) {
				d = end.Sub(s.start)
			} else {
				d = 0
			}
		}
		out[i] = SpanInfo{
			ID: int(s.id), Parent: int(s.parent), Name: s.name,
			Start: s.start, Duration: d, Attrs: s.attrs,
		}
	}
	return out
}

// --- cross-process span shipping ---

// WireSpan is the wire shape of one span when a process ships its trace
// to another (the driver's worker protocol). Parents are batch-local
// indices, start times are absolute wall-clock nanoseconds — processes
// on one machine share a clock, which is the deployment the driver
// supports — and the JSON keys are one letter because a corpus-scale
// job ships thousands of them per result line.
type WireSpan struct {
	Name        string `json:"n"`
	Parent      int32  `json:"p"` // index into the same batch; -1 for the batch root
	StartUnixNs int64  `json:"s"`
	DurNs       int64  `json:"d"`
	Attrs       []Attr `json:"a,omitempty"`
}

// WireSpans snapshots every recorded span as a wire batch ready for
// JSON shipping. Call after Finish (or at least after the spans of
// interest have ended); unfinished spans export with their
// elapsed-at-trace-end duration, exactly as Spans reports them.
func (t *Trace) WireSpans() []WireSpan {
	spans := t.Spans()
	out := make([]WireSpan, len(spans))
	for i, s := range spans {
		out[i] = WireSpan{
			Name:        s.Name,
			Parent:      int32(s.Parent),
			StartUnixNs: s.Start.UnixNano(),
			DurNs:       int64(s.Duration),
			Attrs:       s.Attrs,
		}
	}
	return out
}

// AddExternalSpans grafts a span batch recorded by another process onto
// this trace as a lane keyed by that process's real pid; label names
// the lane in the Chrome export ("worker pid=1234"). The batch is
// validated first: every parent must be -1 or the index of an earlier
// span in the same batch, so a corrupt or truncated shipment can never
// produce orphan parent ids or parent cycles in the merged trace. Safe
// for concurrent use with span creation.
func (t *Trace) AddExternalSpans(pid int, label string, spans []WireSpan) error {
	for i, s := range spans {
		if s.Parent < -1 || int(s.Parent) >= i {
			return fmt.Errorf("obs: external span %d (%q) has parent %d, want -1 or an earlier span",
				i, s.Name, s.Parent)
		}
		if s.DurNs < 0 {
			return fmt.Errorf("obs: external span %d (%q) has negative duration", i, s.Name)
		}
	}
	t.mu.Lock()
	t.external = append(t.external, externalBatch{pid: pid, label: label, spans: spans})
	t.mu.Unlock()
	return nil
}

// ExternalSpanCount returns how many external (shipped) spans the trace
// carries, and how many distinct external pids they came from.
func (t *Trace) ExternalSpanCount() (spans, pids int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[int]bool{}
	for _, b := range t.external {
		spans += len(b.spans)
		seen[b.pid] = true
	}
	return spans, len(seen)
}

// Trace returns the trace a span belongs to (nil for a nil/disabled
// span) — the hook code deep in a call tree uses to graft external
// lanes onto the active trace.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// TraceFromContext returns the trace the context's current span belongs
// to, or nil outside a trace.
func TraceFromContext(ctx context.Context) *Trace {
	return SpanFromContext(ctx).Trace()
}

// --- Chrome trace-event exporter ---

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format (the JSON-array flavour chrome://tracing and Perfetto load).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds from trace start
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace renders the trace as Chrome trace-event JSON.
// Concurrent spans are laid out on synthetic thread lanes: a span lands
// on its parent's lane when the parent is still the innermost open span
// there (so sequential pipelines nest visually), otherwise on the first
// idle lane — the layout a real multi-worker run has, one lane per
// concurrently active span. This process's spans render under pid 1;
// external lanes added with AddExternalSpans render under their real
// worker pids, each named by a process_name metadata event, so a
// distributed mine reads as one timeline with a lane per process.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	events := t.chromeEvents(t.Spans(), 1, map[string]string{"trace_id": t.id})

	t.mu.Lock()
	external := append([]externalBatch(nil), t.external...)
	t.mu.Unlock()
	// One lane group per pid: batches from the same worker process (one
	// per job) concatenate, with batch-local parent ids rebased so the
	// lane layout sees one consistent id space.
	byPid := map[int]*externalBatch{}
	var pidOrder []int
	for _, b := range external {
		g, ok := byPid[b.pid]
		if !ok {
			g = &externalBatch{pid: b.pid, label: b.label}
			byPid[b.pid] = g
			pidOrder = append(pidOrder, b.pid)
		}
		offset := len(g.spans)
		for _, s := range b.spans {
			if s.Parent >= 0 {
				s.Parent += int32(offset)
			}
			g.spans = append(g.spans, s)
		}
	}
	for _, pid := range pidOrder {
		g := byPid[pid]
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: g.pid,
			Args: map[string]string{"name": g.label},
		})
		infos := make([]SpanInfo, len(g.spans))
		for i, s := range g.spans {
			infos[i] = SpanInfo{
				ID:       i,
				Parent:   int(s.Parent),
				Name:     s.Name,
				Start:    time.Unix(0, s.StartUnixNs),
				Duration: time.Duration(s.DurNs),
				Attrs:    s.Attrs,
			}
		}
		events = append(events, t.chromeEvents(infos, g.pid, nil)...)
	}

	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// chromeEvents lays spans out on thread lanes under one pid, with ts
// relative to the trace start (external spans that began before the
// trace clamp to 0). rootArgs, when non-nil, is merged into the args of
// parentless spans.
func (t *Trace) chromeEvents(spans []SpanInfo, pid int, rootArgs map[string]string) []chromeEvent {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if !sa.Start.Equal(sb.Start) {
			return sa.Start.Before(sb.Start)
		}
		if sa.Duration != sb.Duration {
			return sa.Duration > sb.Duration // parents before children on ties
		}
		return sa.ID < sb.ID
	})

	lanes := make([][]SpanInfo, 0, 4) // per-lane stack of open spans
	laneOf := make(map[int]int, len(spans))
	popFinished := func(lane int, at time.Time) {
		stack := lanes[lane]
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.Start.Add(top.Duration).After(at) {
				break
			}
			stack = stack[:len(stack)-1]
		}
		lanes[lane] = stack
	}

	events := make([]chromeEvent, 0, len(spans))
	for _, i := range order {
		s := spans[i]
		lane := -1
		if pl, ok := laneOf[s.Parent]; ok {
			popFinished(pl, s.Start)
			if n := len(lanes[pl]); n > 0 && lanes[pl][n-1].ID == s.Parent {
				lane = pl
			}
		}
		if lane < 0 {
			for li := range lanes {
				popFinished(li, s.Start)
				if len(lanes[li]) == 0 {
					lane = li
					break
				}
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s)
		laneOf[s.ID] = lane

		ts := float64(s.Start.Sub(t.start)) / float64(time.Microsecond)
		if ts < 0 {
			ts = 0
		}
		ev := chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   ts,
			Dur:  float64(s.Duration) / float64(time.Microsecond),
			Pid:  pid,
			Tid:  lane + 1,
		}
		if len(s.Attrs) > 0 || (s.Parent == -1 && len(rootArgs) > 0) {
			ev.Args = make(map[string]string, len(s.Attrs)+1)
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
			if s.Parent == -1 {
				for k, v := range rootArgs {
					ev.Args[k] = v
				}
			}
		}
		events = append(events, ev)
	}
	return events
}

// --- compact text tree exporter ---

// treeGroupThreshold is how many same-named siblings collapse into one
// "name ×N" line in WriteTree (per-file spans would otherwise swamp the
// log output of a corpus run).
const treeGroupThreshold = 4

// WriteTree renders the trace as an indented tree, one line per span,
// with durations and percent of total; runs of >= treeGroupThreshold
// same-named siblings collapse to a single aggregate line.
func (t *Trace) WriteTree(w io.Writer) error {
	spans := t.Spans()
	children := make(map[int][]SpanInfo)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total := t.Duration()
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s (%d spans", t.name, fmtDur(total), len(spans))
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, ", %d dropped", d)
	}
	b.WriteString(")\n")
	writeTreeLevel(&b, children, 0, "", total)
	_, err := io.WriteString(w, b.String())
	return err
}

func writeTreeLevel(b *strings.Builder, children map[int][]SpanInfo, id int, prefix string, total time.Duration) {
	kids := children[id]
	// Group siblings by name, preserving first-appearance order.
	type group struct {
		name  string
		spans []SpanInfo
	}
	var groups []*group
	byName := map[string]*group{}
	for _, k := range kids {
		g := byName[k.Name]
		if g == nil {
			g = &group{name: k.Name}
			byName[k.Name] = g
			groups = append(groups, g)
		}
		g.spans = append(g.spans, k)
	}
	// One output row per group (collapsed) or per span (small groups).
	type row struct {
		collapsed bool
		g         *group
		s         SpanInfo
	}
	var rows []row
	for _, g := range groups {
		if len(g.spans) >= treeGroupThreshold {
			rows = append(rows, row{collapsed: true, g: g})
			continue
		}
		for _, s := range g.spans {
			rows = append(rows, row{s: s})
		}
	}
	for i, r := range rows {
		branch, cont := "├─ ", "│  "
		if i == len(rows)-1 {
			branch, cont = "└─ ", "   "
		}
		if r.collapsed {
			var sum, max time.Duration
			for _, s := range r.g.spans {
				sum += s.Duration
				if s.Duration > max {
					max = s.Duration
				}
			}
			fmt.Fprintf(b, "%s%s%s ×%d total=%s max=%s%s\n",
				prefix, branch, r.g.name, len(r.g.spans), fmtDur(sum), fmtDur(max), pct(sum, total))
			continue
		}
		s := r.s
		fmt.Fprintf(b, "%s%s%s %s%s%s\n",
			prefix, branch, s.Name, fmtDur(s.Duration), pct(s.Duration, total), fmtAttrs(s.Attrs))
		writeTreeLevel(b, children, s.ID, prefix+cont, total)
	}
}

// fmtDur rounds a duration to a readable precision for tree output.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.Round(100 * time.Nanosecond).String()
}

func pct(d, total time.Duration) string {
	if total <= 0 {
		return ""
	}
	return fmt.Sprintf(" %.1f%%", 100*float64(d)/float64(total))
}

func fmtAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(" {")
	for i, a := range attrs {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(a.Key)
		b.WriteString("=")
		b.WriteString(a.Value)
	}
	b.WriteString("}")
	return b.String()
}

// --- flight recorder ---

// FlightRecorder keeps the N slowest recent finished traces: a new
// trace always enters while there is room, and once full it evicts the
// current fastest if (and only if) it is slower — the slowest-N
// invariant the /debug/traces endpoint serves from.
type FlightRecorder struct {
	mu     sync.Mutex
	cap    int
	traces []*Trace
}

// NewFlightRecorder returns a recorder keeping the n slowest traces
// (n < 1 keeps 1).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 1 {
		n = 1
	}
	return &FlightRecorder{cap: n}
}

// Add offers a finished trace; it reports whether the trace was kept.
func (fr *FlightRecorder) Add(tr *Trace) bool {
	d := tr.Duration()
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if len(fr.traces) < fr.cap {
		fr.traces = append(fr.traces, tr)
		return true
	}
	min := 0
	for i := range fr.traces {
		if fr.traces[i].Duration() < fr.traces[min].Duration() {
			min = i
		}
	}
	if d <= fr.traces[min].Duration() {
		return false
	}
	fr.traces[min] = tr
	return true
}

// Len returns how many traces are held.
func (fr *FlightRecorder) Len() int {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return len(fr.traces)
}

// Slowest returns the held traces sorted slowest first.
func (fr *FlightRecorder) Slowest() []*Trace {
	fr.mu.Lock()
	out := append([]*Trace(nil), fr.traces...)
	fr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Duration() > out[j].Duration() })
	return out
}

// Get returns the held trace with the given id, or nil.
func (fr *FlightRecorder) Get(id string) *Trace {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for _, t := range fr.traces {
		if t.id == id {
			return t
		}
	}
	return nil
}

// TraceSummary is one entry of the /debug/traces listing.
type TraceSummary struct {
	ID             string  `json:"id"`
	Name           string  `json:"name"`
	Start          string  `json:"start"`
	DurationMillis float64 `json:"duration_ms"`
	Spans          int     `json:"spans"`
	Dropped        int     `json:"dropped_spans,omitempty"`
	Tree           string  `json:"tree"`
}

// Handler serves the recorder over HTTP: a JSON list of held traces
// (slowest first, each with its text tree), or — with ?id=<trace id> or
// ?id=slowest — one trace as Chrome trace-event JSON, ready for
// chrome://tracing or Perfetto.
func (fr *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if id == "" {
			var out []TraceSummary
			for _, t := range fr.Slowest() {
				var tree strings.Builder
				t.WriteTree(&tree)
				out = append(out, TraceSummary{
					ID:             t.ID(),
					Name:           t.Name(),
					Start:          t.Start().UTC().Format(time.RFC3339Nano),
					DurationMillis: float64(t.Duration().Microseconds()) / 1000,
					Spans:          t.SpanCount(),
					Dropped:        t.Dropped(),
					Tree:           tree.String(),
				})
			}
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			enc.Encode(out)
			return
		}
		var tr *Trace
		if id == "slowest" {
			if ts := fr.Slowest(); len(ts) > 0 {
				tr = ts[0]
			}
		} else {
			tr = fr.Get(id)
		}
		if tr == nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, "{\"error\":\"no trace %q\"}\n", id)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		tr.WriteChromeTrace(w)
	})
}
