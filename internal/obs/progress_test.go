package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// A Final arriving microseconds after the last emitted line must not
// compute the moving rate over the near-zero window — it falls back to
// the lifetime average instead of printing an absurd rate and ETA.
func TestProgressFinalRateNotSpiked(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "analyze", "files")
	p.SetInterval(0)
	clock := p.start
	p.now = func() time.Time { return clock }

	clock = clock.Add(10 * time.Second)
	p.Update(500, 1000, 0) // lifetime and moving rate agree: 50.0/s

	clock = clock.Add(50 * time.Microsecond)
	p.Final(501, 1000, 0) // moving window is 50µs — must fall back

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "50.0 files/s") {
		t.Errorf("update line rate = %q, want 50.0 files/s", lines[0])
	}
	// 501 files over ~10s lifetime ≈ 50.1/s; the buggy moving rate would
	// have been 1 file / 50µs = 20000/s.
	if !strings.Contains(lines[1], "50.1 files/s") {
		t.Errorf("final line rate = %q, want the lifetime average 50.1 files/s", lines[1])
	}
}

// A moving window at or above the floor still tracks mid-run speed
// changes rather than the lifetime average.
func TestProgressMovingRateTracksSpeedup(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "analyze", "files")
	p.SetInterval(0)
	clock := p.start
	p.now = func() time.Time { return clock }

	clock = clock.Add(10 * time.Second)
	p.Update(100, 1000, 0) // 10/s lifetime

	clock = clock.Add(1 * time.Second)
	p.Update(300, 1000, 0) // 200 files in the last second

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[1], "200.0 files/s") {
		t.Errorf("second line rate = %q, want the moving 200.0 files/s", lines[1])
	}
}

func TestProgressFirstUpdateEmitsImmediately(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "mine", "shards")
	// Default interval is 2s; the first Update must not wait for it.
	p.Update(1, 8, 0)
	if !strings.HasPrefix(buf.String(), "mine: 1/8 shards") {
		t.Fatalf("first update silent or wrong: %q", buf.String())
	}
}

func TestProgressAggregatorSumsSources(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "map", "files")
	p.SetInterval(0)
	a := NewProgressAggregator(p, 3, 30)
	a.Report(0, 5, 100)
	a.Report(2, 7, 200)
	a.Report(0, 6, 120) // absolute re-report must replace, not add
	a.Final()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "map: 13/30 files") {
		t.Fatalf("final aggregate = %q, want 13/30", last)
	}
	if !strings.Contains(last, "320 statements") {
		t.Fatalf("final aggregate = %q, want 320 statements", last)
	}
}

// The driver's multi-worker shape under -race: every worker goroutine
// reports its own shard concurrently while readers — interval-0 emits
// that format the cross-source sums, plus concurrent Final calls — walk
// the same per-source tables. Beyond the race detector, the emitted
// aggregate must be monotone: a formatted sum may never go backwards,
// which is exactly what a torn read of the done slice would produce.
func TestProgressAggregatorConcurrentReadsAndWrites(t *testing.T) {
	var buf syncBuffer
	p := NewProgress(&buf, "map", "files")
	p.SetInterval(0) // every Report takes the read+format path
	const sources, perSource = 8, 200
	a := NewProgressAggregator(p, sources, sources*perSource)
	var wg sync.WaitGroup
	for s := 0; s < sources; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= perSource; i++ {
				a.Report(s, i, 2*i)
			}
		}(s)
	}
	// Interleave whole-table reads with the writers.
	for i := 0; i < 20; i++ {
		a.Final()
	}
	wg.Wait()
	a.Final()

	last := 0
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines {
		var done, total int
		if _, err := fmt.Sscanf(line, "map: %d/%d files", &done, &total); err != nil {
			t.Fatalf("unparseable progress line %q: %v", line, err)
		}
		if done < last {
			t.Fatalf("aggregate went backwards: %d after %d in %q", done, last, line)
		}
		last = done
	}
	if want := sources * perSource; last != want {
		t.Fatalf("final aggregate = %d, want %d", last, want)
	}
}

// syncBuffer makes the underlying buffer safe for the writer/reader
// interleaving above (Progress serializes its own writes, but the test
// also reads while writers run).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestProgressAggregatorConcurrent(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "map", "files")
	a := NewProgressAggregator(p, 8, 800)
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				a.Report(s, i, i)
			}
		}(s)
	}
	wg.Wait()
	a.Final()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "map: 800/800 files (100%)") {
		t.Fatalf("final aggregate = %q, want 800/800", last)
	}
}

// A logger-backed Progress emits each report as one JSON record with the
// line's figures as attributes, and writes nothing else.
func TestProgressLogRecords(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	p := NewProgressLog(lg, "analyze", "files")
	p.SetInterval(0)
	clock := p.start
	p.now = func() time.Time { return clock }

	clock = clock.Add(10 * time.Second)
	p.Update(500, 1000, 1200)
	p.Final(1000, 1000, 0)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var recs [2]map[string]any
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &recs[i]); err != nil {
			t.Fatalf("line %d is not a JSON object: %v\n%s", i, err, line)
		}
	}
	want := map[string]any{"level": "INFO", "msg": "progress", "stage": "analyze",
		"done": 500.0, "total": 1000.0, "unit": "files", "statements": 1200.0, "rate": 50.0, "eta": "10s"}
	for k, v := range want {
		if recs[0][k] != v {
			t.Errorf("update record %s = %v, want %v\n%s", k, recs[0][k], v, lines[0])
		}
	}
	// Nothing left: no ETA, and no statements when the count is 0.
	for _, k := range []string{"eta", "statements"} {
		if _, ok := recs[1][k]; ok {
			t.Errorf("final record has %s: %s", k, lines[1])
		}
	}
}
