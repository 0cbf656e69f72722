package session

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type fakeCounter struct{ n atomic.Int64 }

func (f *fakeCounter) Inc() { f.n.Add(1) }

type fakeGauge struct{ v atomic.Int64 }

func (f *fakeGauge) Set(v int64) { f.v.Store(v) }

func TestOpenGetClose(t *testing.T) {
	m := NewManager(Config{})
	s, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s.ID(), "s-") || len(s.ID()) != 26 {
		t.Fatalf("unexpected session id %q", s.ID())
	}
	got, ok := m.Get(s.ID())
	if !ok || got != s {
		t.Fatal("Get did not return the opened session")
	}
	if _, ok := m.Get("s-does-not-exist"); ok {
		t.Fatal("unknown id resolved")
	}
	if !m.Close(s.ID()) {
		t.Fatal("Close reported unknown id")
	}
	if m.Close(s.ID()) {
		t.Fatal("double close succeeded")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after close", m.Len())
	}
}

func TestCapacity(t *testing.T) {
	m := NewManager(Config{MaxSessions: 2})
	a, _ := m.Open()
	if _, err := m.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("third open: %v, want ErrTooManySessions", err)
	}
	m.Close(a.ID())
	if _, err := m.Open(); err != nil {
		t.Fatalf("open after close: %v", err)
	}
}

func TestIdleEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	count := &fakeGauge{}
	evict := &fakeCounter{}
	m := NewManager(Config{IdleTTL: time.Minute, Now: clock,
		Metrics: Metrics{Count: count, IdleEvictions: evict}})
	a, _ := m.Open()
	b, _ := m.Open()
	if count.v.Load() != 2 {
		t.Fatalf("count gauge = %d, want 2", count.v.Load())
	}

	// Keep a active, let b idle past the TTL.
	now = now.Add(40 * time.Second)
	m.Get(a.ID())
	now = now.Add(30 * time.Second) // b idle 70s > TTL; a idle 30s
	if n := m.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	if _, ok := m.Get(b.ID()); ok {
		t.Fatal("idle session survived the sweep")
	}
	if _, ok := m.Get(a.ID()); !ok {
		t.Fatal("active session evicted")
	}
	if evict.n.Load() != 1 || count.v.Load() != 1 {
		t.Fatalf("metrics: evictions=%d count=%d, want 1/1", evict.n.Load(), count.v.Load())
	}
}

// TestSweepRateLimited: the opportunistic sweep in Open/Get runs at most
// once per quarter TTL, so a busy manager is not scanning its whole
// table on every request.
func TestSweepRateLimited(t *testing.T) {
	now := time.Unix(1000, 0)
	m := NewManager(Config{IdleTTL: time.Minute, Now: func() time.Time { return now }})
	idle, _ := m.Open()
	_ = idle
	now = now.Add(2 * time.Minute) // idle is far past the TTL

	// The first Get sweeps (and evicts idle); reopen one and make it
	// eligible again within the rate-limit window: no second sweep runs.
	m.Get("s-anything")
	if m.Len() != 0 {
		t.Fatalf("first opportunistic sweep did not run: %d sessions", m.Len())
	}
	again, _ := m.Open()
	again.lastActive.Store(now.Add(-2 * time.Minute).UnixNano())
	now = now.Add(10 * time.Second) // < TTL/4 since last sweep
	m.Get("s-whatever")
	if m.Len() != 1 {
		t.Fatal("sweep ran again inside the rate-limit window")
	}
	now = now.Add(10 * time.Second) // past TTL/4 now
	m.Get("s-whatever")
	if m.Len() != 0 {
		t.Fatal("sweep did not resume after the rate-limit window")
	}
}

func TestIdleEvictionDisabled(t *testing.T) {
	now := time.Unix(1000, 0)
	m := NewManager(Config{IdleTTL: -1, Now: func() time.Time { return now }})
	m.Open()
	now = now.Add(24 * time.Hour)
	if n := m.Sweep(); n != 0 {
		t.Fatalf("disabled sweep evicted %d sessions", n)
	}
	if m.Len() != 1 {
		t.Fatal("session gone despite disabled eviction")
	}
}

func openFile(t *testing.T, s *Session, path, content string) {
	t.Helper()
	if err := s.Update(path, 1, []Edit{{Text: content}}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateFullAndRangeEdits(t *testing.T) {
	m := NewManager(Config{})
	s, _ := m.Open()
	openFile(t, s, "f.py", "a = 1\nb = 2\nc = 3\n")

	var got *Change
	err := s.Update("f.py", 2, []Edit{{
		Range: &Range{Start: Pos{Line: 1, Character: 4}, End: Pos{Line: 1, Character: 5}},
		Text:  "20",
	}}, func(ch *Change) any { got = ch; return "state-2" })
	if err != nil {
		t.Fatal(err)
	}
	if got.After != "a = 1\nb = 20\nc = 3\n" {
		t.Fatalf("After = %q", got.After)
	}
	if got.Before != "a = 1\nb = 2\nc = 3\n" {
		t.Fatalf("Before = %q", got.Before)
	}
	if got.Prev != nil {
		t.Fatalf("Prev = %v on second change (first stored nil)", got.Prev)
	}

	// Multi-line range replacement spanning lines 1-2.
	err = s.Update("f.py", 3, []Edit{{
		Range: &Range{Start: Pos{Line: 0, Character: 0}, End: Pos{Line: 1, Character: 6}},
		Text:  "x = 9",
	}}, func(ch *Change) any { got = ch; return "state-3" })
	if err != nil {
		t.Fatal(err)
	}
	if got.After != "x = 9\nc = 3\n" {
		t.Fatalf("After = %q", got.After)
	}
	if got.Prev != "state-2" {
		t.Fatalf("Prev = %v, want state-2", got.Prev)
	}

	content, version, ok := s.Snapshot("f.py")
	if !ok || version != 3 || content != "x = 9\nc = 3\n" {
		t.Fatalf("Snapshot = %q v%d %v", content, version, ok)
	}
}

// TestUpdateFullReplaceClearsHint: a full-content edit mid-batch
// replaces everything the edits before it produced, and the Change
// carries no hint; the splicer works from Before and After alone.
func TestUpdateFullReplaceClearsHint(t *testing.T) {
	m := NewManager(Config{})
	s, _ := m.Open()
	openFile(t, s, "f.py", "a = 1\n")
	var got *Change
	err := s.Update("f.py", 2, []Edit{
		{Range: &Range{Start: Pos{Line: 0, Character: 0}, End: Pos{Line: 0, Character: 1}}, Text: "b"},
		{Text: "whole = new()\n"}, // full replace mid-batch
	}, func(ch *Change) any { got = ch; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got.Hint != nil {
		t.Fatalf("full-content batch carries hint %+v", got.Hint)
	}
	if got.Before != "a = 1\n" || got.After != "whole = new()\n" {
		t.Fatalf("Before = %q, After = %q", got.Before, got.After)
	}
}

// TestUpdateMultiEditHintMerges: a batch's range edits apply one after
// the other, each against the content the previous one left, and the
// Change spans the whole batch, so the splicer's diff of Before and
// After covers every edit in it.
func TestUpdateMultiEditHintMerges(t *testing.T) {
	m := NewManager(Config{})
	s, _ := m.Open()
	openFile(t, s, "f.py", "a = 1\nb = 2\nc = 3\nd = 4\n")
	var got *Change
	err := s.Update("f.py", 2, []Edit{
		{Range: &Range{Start: Pos{Line: 0, Character: 4}, End: Pos{Line: 0, Character: 5}}, Text: "10"},
		{Range: &Range{Start: Pos{Line: 3, Character: 4}, End: Pos{Line: 3, Character: 5}}, Text: "40"},
	}, func(ch *Change) any { got = ch; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got.Hint != nil {
		t.Fatalf("range batch carries hint %+v", got.Hint)
	}
	if got.Before != "a = 1\nb = 2\nc = 3\nd = 4\n" {
		t.Fatalf("Before = %q", got.Before)
	}
	if got.After != "a = 10\nb = 2\nc = 3\nd = 40\n" {
		t.Fatalf("After = %q", got.After)
	}
}

func TestUpdateErrors(t *testing.T) {
	m := NewManager(Config{})
	s, _ := m.Open()
	if err := s.Update("f.py", 1, nil, nil); err == nil {
		t.Fatal("empty edit batch accepted")
	}
	// Range edit against a file the session never opened.
	err := s.Update("f.py", 1, []Edit{{
		Range: &Range{Start: Pos{Line: 0, Character: 0}, End: Pos{Line: 0, Character: 0}},
	}}, nil)
	if !errors.Is(err, ErrUnknownFile) {
		t.Fatalf("range edit on unopened file: %v, want ErrUnknownFile", err)
	}
	openFile(t, s, "f.py", "a = 1\n")
	bad := []Range{
		{Start: Pos{Line: 5, Character: 0}, End: Pos{Line: 5, Character: 0}},   // line out of range
		{Start: Pos{Line: 0, Character: 99}, End: Pos{Line: 0, Character: 99}}, // char out of range
		{Start: Pos{Line: 1, Character: 0}, End: Pos{Line: 0, Character: 0}},   // end before start
		{Start: Pos{Line: -1, Character: 0}, End: Pos{Line: 0, Character: 0}},  // negative
	}
	for i, r := range bad {
		r := r
		err := s.Update("f.py", 2, []Edit{{Range: &r, Text: "x"}}, nil)
		if !errors.Is(err, ErrBadRange) {
			t.Errorf("bad range %d: %v, want ErrBadRange", i, err)
		}
	}
	// A failed batch leaves the overlay untouched.
	content, version, _ := s.Snapshot("f.py")
	if content != "a = 1\n" || version != 1 {
		t.Fatalf("failed edits moved the overlay: %q v%d", content, version)
	}
}

// TestScanCallbackSerialized: the scan callback runs under the session
// lock with a consistent Before/After pair, and the stored state chains
// change to change.
func TestScanCallbackSerialized(t *testing.T) {
	m := NewManager(Config{})
	s, _ := m.Open()
	openFile(t, s, "f.py", "v0\n")
	var order []string
	for i := 1; i <= 5; i++ {
		i := i
		err := s.Update("f.py", i+1, []Edit{{Text: fmt.Sprintf("v%d\n", i)}}, func(ch *Change) any {
			order = append(order, fmt.Sprintf("%s->%s prev=%v",
				strings.TrimSpace(ch.Before), strings.TrimSpace(ch.After), ch.Prev))
			return i
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"v0->v1 prev=<nil>", "v1->v2 prev=1", "v2->v3 prev=2", "v3->v4 prev=3", "v4->v5 prev=4",
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("change %d = %q, want %q", i, order[i], want[i])
		}
	}
}

// TestConcurrentSessions: distinct sessions advance in parallel without
// cross-talk; run under -race this is the locking check.
func TestConcurrentSessions(t *testing.T) {
	m := NewManager(Config{})
	const sessions, edits = 16, 50
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		s, err := m.Open()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, s *Session) {
			defer wg.Done()
			content := fmt.Sprintf("session%d = 0\n", g)
			if err := s.Update("f.py", 1, []Edit{{Text: content}}, nil); err != nil {
				errs <- err
				return
			}
			for i := 1; i <= edits; i++ {
				want := fmt.Sprintf("session%d = %d\n", g, i-1)
				err := s.Update("f.py", i+1, []Edit{{
					Range: &Range{Start: Pos{Line: 0, Character: 0},
						End: Pos{Line: 0, Character: len(want) - 1}},
					Text: fmt.Sprintf("session%d = %d", g, i),
				}}, func(ch *Change) any {
					if ch.Before != want {
						errs <- fmt.Errorf("session %d edit %d: before = %q, want %q", g, i, ch.Before, want)
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
			content, _, _ = s.Snapshot("f.py")
			if want := fmt.Sprintf("session%d = %d\n", g, edits); content != want {
				errs <- fmt.Errorf("session %d final content %q, want %q", g, content, want)
			}
		}(g, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
