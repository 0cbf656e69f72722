package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNestingSequential(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "root", "trace-1")
	if tr.ID() != "trace-1" {
		t.Fatalf("ID = %q, want trace-1", tr.ID())
	}
	actx, a := StartSpan(ctx, "a")
	_, aa := StartSpan(actx, "a.a")
	aa.SetAttr("k", "v")
	aa.SetAttrInt("n", 7)
	aa.End()
	a.End()
	_, b := StartSpan(ctx, "b")
	b.End()
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]SpanInfo{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if got := byName["root"].Parent; got != -1 {
		t.Errorf("root parent = %d, want -1", got)
	}
	if got := byName["a"].Parent; got != byName["root"].ID {
		t.Errorf("a parent = %d, want root (%d)", got, byName["root"].ID)
	}
	if got := byName["a.a"].Parent; got != byName["a"].ID {
		t.Errorf("a.a parent = %d, want a (%d)", got, byName["a"].ID)
	}
	if got := byName["b"].Parent; got != byName["root"].ID {
		t.Errorf("b parent = %d, want root (%d)", got, byName["root"].ID)
	}
	attrs := byName["a.a"].Attrs
	if len(attrs) != 2 || attrs[0] != (Attr{"k", "v"}) || attrs[1] != (Attr{"n", "7"}) {
		t.Errorf("a.a attrs = %v", attrs)
	}
}

// TestSpanNestingConcurrent starts child spans from many goroutines at
// once — the shape core.ProcessFiles produces under parallel.ForEach —
// and checks every child landed under the right parent.
func TestSpanNestingConcurrent(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "root", "")
	sctx, stage := StartSpan(ctx, "stage")
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx, s := StartSpan(sctx, "item")
			s.SetAttrInt("i", i)
			_, g := StartSpan(cctx, "grandchild")
			g.End()
			s.End()
		}(i)
	}
	wg.Wait()
	stage.End()
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 2+2*n {
		t.Fatalf("got %d spans, want %d", len(spans), 2+2*n)
	}
	var stageID int = -2
	for _, s := range spans {
		if s.Name == "stage" {
			stageID = s.ID
		}
	}
	items := map[int]bool{} // item span id -> seen
	for _, s := range spans {
		if s.Name == "item" {
			if s.Parent != stageID {
				t.Fatalf("item %d parent = %d, want stage (%d)", s.ID, s.Parent, stageID)
			}
			items[s.ID] = true
		}
	}
	if len(items) != n {
		t.Fatalf("got %d item spans, want %d", len(items), n)
	}
	grandchildren := 0
	for _, s := range spans {
		if s.Name == "grandchild" {
			if !items[s.Parent] {
				t.Fatalf("grandchild %d parent = %d, not an item span", s.ID, s.Parent)
			}
			grandchildren++
		}
	}
	if grandchildren != n {
		t.Fatalf("got %d grandchildren, want %d", grandchildren, n)
	}
}

func TestStartSpanOutsideTrace(t *testing.T) {
	ctx := context.Background()
	cctx, s := StartSpan(ctx, "orphan")
	if s != nil {
		t.Fatal("StartSpan outside a trace returned a live span")
	}
	if cctx != ctx {
		t.Fatal("StartSpan outside a trace rewrapped the context")
	}
	// Every method must be a safe no-op on the nil span.
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 1)
	s.End()
	if _, ok := s.Duration(); ok {
		t.Fatal("nil span reported a duration")
	}
	if s.Name() != "" {
		t.Fatal("nil span reported a name")
	}
}

// TestDisabledTracingZeroAlloc pins the acceptance criterion that the
// scan hot path pays nothing when tracing is off: starting and ending a
// span on an untraced context must not allocate.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, s := StartSpan(ctx, "hot")
		s.SetAttr("k", "v")
		s.SetAttrInt("n", 42)
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f per op, want 0", allocs)
	}
}

func TestSpanBudget(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "root", "")
	tr.SetMaxSpans(3) // root + two children
	_, a := StartSpan(ctx, "a")
	a.End()
	_, b := StartSpan(ctx, "b")
	b.End()
	cctx, c := StartSpan(ctx, "c") // over budget: dropped
	if c != nil {
		t.Fatal("span over budget was not dropped")
	}
	if cctx != ctx {
		t.Fatal("dropped span rewrapped the context")
	}
	tr.Finish()
	if got := tr.SpanCount(); got != 3 {
		t.Errorf("SpanCount = %d, want 3", got)
	}
	if got := tr.Dropped(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "run", "rt-1")
	actx, a := StartSpan(ctx, "stage_a")
	a.SetAttrInt("items", 3)
	_, aa := StartSpan(actx, "inner")
	time.Sleep(time.Millisecond)
	aa.End()
	a.End()
	_, b := StartSpan(ctx, "stage_b")
	time.Sleep(time.Millisecond)
	b.End()
	tr.Finish()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	names := map[string]bool{}
	var rootDur float64
	for _, ev := range events {
		names[ev.Name] = true
		if ev.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %q has negative ts/dur: %v/%v", ev.Name, ev.Ts, ev.Dur)
		}
		if ev.Pid != 1 || ev.Tid < 1 {
			t.Errorf("event %q pid/tid = %d/%d", ev.Name, ev.Pid, ev.Tid)
		}
		switch ev.Name {
		case "run":
			rootDur = ev.Dur
			if ev.Args["trace_id"] != "rt-1" {
				t.Errorf("root trace_id = %q, want rt-1", ev.Args["trace_id"])
			}
		case "stage_a":
			if ev.Args["items"] != "3" {
				t.Errorf("stage_a items = %q, want 3", ev.Args["items"])
			}
		}
	}
	for _, want := range []string{"run", "stage_a", "inner", "stage_b"} {
		if !names[want] {
			t.Errorf("export missing span %q", want)
		}
	}
	// Every child event fits inside the root's window.
	for _, ev := range events {
		if ev.Name == "run" {
			continue
		}
		if ev.Ts+ev.Dur > rootDur*1.01+1 {
			t.Errorf("event %q [%v, %v] extends past root end %v", ev.Name, ev.Ts, ev.Ts+ev.Dur, rootDur)
		}
	}
}

func TestWriteTreeGroupsSiblings(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "run", "")
	sctx, stage := StartSpan(ctx, "process")
	for i := 0; i < 5; i++ {
		_, f := StartSpan(sctx, "file")
		f.End()
	}
	stage.End()
	tr.Finish()

	var buf bytes.Buffer
	if err := tr.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "file ×5") {
		t.Errorf("tree did not collapse 5 file siblings:\n%s", out)
	}
	if !strings.Contains(out, "process") {
		t.Errorf("tree missing process span:\n%s", out)
	}
	if strings.Count(out, "file") != 1 {
		t.Errorf("collapsed siblings still listed individually:\n%s", out)
	}
}

// fabricateTrace returns a finished trace whose Duration() is exactly d.
func fabricateTrace(name, id string, d time.Duration) *Trace {
	_, tr := NewTrace(context.Background(), name, id)
	tr.Finish()
	tr.end = tr.start.Add(d)
	return tr
}

func TestFlightRecorderSlowestN(t *testing.T) {
	fr := NewFlightRecorder(3)
	durations := []time.Duration{ // offered in this order
		5 * time.Millisecond,
		50 * time.Millisecond,
		10 * time.Millisecond,
		40 * time.Millisecond, // evicts 5ms
		1 * time.Millisecond,  // too fast: rejected
		10 * time.Millisecond, // ties the current min: rejected
		60 * time.Millisecond, // evicts 10ms
	}
	wantKept := []bool{true, true, true, true, false, false, true}
	for i, d := range durations {
		tr := fabricateTrace("req", fmt.Sprintf("t%d", i), d)
		if got := fr.Add(tr); got != wantKept[i] {
			t.Errorf("Add(trace %d, %v) = %v, want %v", i, d, got, wantKept[i])
		}
	}
	if fr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", fr.Len())
	}
	slowest := fr.Slowest()
	var got []time.Duration
	for _, tr := range slowest {
		got = append(got, tr.Duration())
	}
	want := []time.Duration{60 * time.Millisecond, 50 * time.Millisecond, 40 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slowest durations = %v, want %v", got, want)
		}
	}
	if tr := fr.Get("t1"); tr == nil || tr.Duration() != 50*time.Millisecond {
		t.Errorf("Get(t1) = %v", tr)
	}
	if tr := fr.Get("t0"); tr != nil {
		t.Errorf("Get(t0) returned an evicted trace")
	}
}

func TestFlightRecorderHandler(t *testing.T) {
	fr := NewFlightRecorder(4)
	fr.Add(fabricateTrace("scan_request", "fast", 2*time.Millisecond))
	fr.Add(fabricateTrace("scan_request", "slow", 20*time.Millisecond))
	h := fr.Handler()

	// Listing: slowest first, with text trees.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("list status = %d", rec.Code)
	}
	var list []TraceSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if len(list) != 2 || list[0].ID != "slow" || list[1].ID != "fast" {
		t.Fatalf("list order wrong: %+v", list)
	}
	if list[0].Tree == "" || list[0].Spans != 1 {
		t.Errorf("summary missing tree/spans: %+v", list[0])
	}

	// Single trace by id, and by the "slowest" alias: Chrome JSON.
	for _, id := range []string{"slow", "slowest"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id="+id, nil))
		if rec.Code != 200 {
			t.Fatalf("?id=%s status = %d", id, rec.Code)
		}
		var events []map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
			t.Fatalf("?id=%s not valid JSON: %v", id, err)
		}
		if len(events) != 1 || events[0]["name"] != "scan_request" {
			t.Fatalf("?id=%s events = %v", id, events)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=nope", nil))
	if rec.Code != 404 {
		t.Fatalf("missing id status = %d, want 404", rec.Code)
	}
}

func TestUnendedSpansClampToTraceEnd(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "run", "")
	_, s := StartSpan(ctx, "leaked") // never ended
	_ = s
	time.Sleep(time.Millisecond)
	tr.Finish()
	for _, si := range tr.Spans() {
		if si.Name != "leaked" {
			continue
		}
		if si.Duration <= 0 || si.Duration > tr.Duration() {
			t.Fatalf("leaked span duration %v outside (0, %v]", si.Duration, tr.Duration())
		}
	}
}

func TestProgressOutput(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "analyze", "files")
	p.SetInterval(0)
	p.Update(3, 10, 120)
	p.Final(10, 10, 400)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "analyze: 3/10 files (30%)") {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.Contains(lines[0], "120 statements") {
		t.Errorf("first line missing statement count: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "analyze: 10/10 files (100%)") {
		t.Errorf("final line = %q", lines[1])
	}
	if strings.Contains(lines[1], "ETA") {
		t.Errorf("final line has an ETA with nothing left: %q", lines[1])
	}
}

func TestProgressThrottles(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "analyze", "files")
	p.SetInterval(time.Hour)
	for i := 1; i <= 100; i++ {
		p.Update(i, 100, 0)
	}
	// The first Update emits immediately (so short runs are not silent
	// until Final); everything after is throttled by the interval.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("throttled Progress emitted %d lines: %q", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "analyze: 1/100 files") {
		t.Fatalf("first line = %q, want the first update", lines[0])
	}
}
