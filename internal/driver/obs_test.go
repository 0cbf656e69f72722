package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"namer/internal/obs"
)

// TestObsGate is the tier-1 observability gate (make obs-gate): a
// 2-shard mine with spawned worker subprocesses, run under a trace and
// a live status server, must produce
//
//   - one merged Chrome trace containing the driver's spans plus both
//     workers' shipped span lanes keyed by their real PIDs, including
//     checkpoint and resume-validation spans, with no orphan parents
//     (enforced at graft time) and no malformed events;
//   - a /status endpoint whose shard state machine reaches "done";
//   - a /metrics endpoint that parses as Prometheus text with monotone
//     histogram buckets;
//   - live /debug/pprof and /debug/traces endpoints while jobs run;
//
// and knowledge bytes identical to the single-process reference.
func TestObsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	dir, want := testCorpus(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("NAMER_DRIVER_WORKER", "1")

	var logBuf syncLog
	lg := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	mon := NewMonitor()
	rec := obs.NewFlightRecorder(8)
	st, err := StartStatus("127.0.0.1:0", mon, rec, lg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := "http://" + st.Addr()

	ctx, tr := obs.NewTrace(context.Background(), "obs-gate", "")
	tr.SetMaxSpans(1 << 18)

	opts := driverOptions(dir, t.TempDir(), 2)
	opts.WorkerCommand = []string{exe}
	opts.Workers = 2
	opts.Log = lg
	opts.Monitor = mon
	opts.Recorder = rec
	// Scrape the live endpoints at a deterministic moment: right after the
	// first completed map job, while the mine is mid-run.
	var scrapeOnce sync.Once
	var liveStatus, livePprof string
	opts.afterJob = func(phase string, shard int) error {
		var err error
		scrapeOnce.Do(func() {
			liveStatus, err = httpGet(base + "/status")
			if err != nil {
				return
			}
			livePprof, err = httpGet(base + "/debug/pprof/cmdline")
		})
		return err
	}

	art, stats, err := Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	// Knowledge must stay byte-identical with all observability on.
	if got := encodeArtifact(t, art); !bytes.Equal(got, want) {
		t.Fatal("observed driver run produced different knowledge bytes")
	}

	// --- live endpoints, captured mid-run ---
	if liveStatus == "" || livePprof == "" {
		t.Fatal("afterJob scrape did not run")
	}
	var live statusSnapshot
	if err := json.Unmarshal([]byte(liveStatus), &live); err != nil {
		t.Fatalf("/status mid-run is not JSON: %v\n%s", err, liveStatus)
	}
	if len(live.Shards) != 2 {
		t.Fatalf("/status mid-run shards = %d, want 2", len(live.Shards))
	}

	// --- final status: every shard done, round done ---
	finalStatus, err := httpGet(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var fin statusSnapshot
	if err := json.Unmarshal([]byte(finalStatus), &fin); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}
	if fin.Round != "done" {
		t.Errorf("final round = %q, want done", fin.Round)
	}
	for _, s := range fin.Shards {
		if s.State != ShardDone {
			t.Errorf("shard %d final state = %q, want done (%+v)", s.Shard, s.State, s)
		}
		if s.CPUMs < 0 || s.WallMs <= 0 {
			t.Errorf("shard %d has implausible resource row: %+v", s.Shard, s)
		}
	}

	// --- /metrics parses; histograms monotone ---
	metrics, err := httpGet(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	checkPrometheusText(t, metrics)
	for _, want := range []string{
		`namer_mine_shard_state{state="done"} 2`,
		`namer_mine_jobs_total{phase="stmts",result="ok"} 2`,
		`namer_mine_jobs_total{phase="trees",result="ok"} 2`,
		"namer_mine_job_seconds_bucket",
		"go_goroutines",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// --- /debug/traces has per-job traces ---
	if rec.Len() == 0 {
		t.Error("flight recorder is empty; per-job traces were not recorded")
	}
	if body, err := httpGet(base + "/debug/traces"); err != nil || !strings.Contains(body, "shard-") {
		t.Errorf("/debug/traces unusable: err=%v body=%.120q", err, body)
	}

	// --- the merged Chrome trace ---
	var traceJSON bytes.Buffer
	if err := tr.WriteChromeTrace(&traceJSON); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(traceJSON.Bytes(), &events); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	workerPids := map[int]bool{}
	names := map[string]bool{}
	self := os.Getpid()
	for _, e := range events {
		switch e.Ph {
		case "X":
			if e.Ts < 0 || e.Dur < 0 {
				t.Fatalf("malformed event %q: ts=%v dur=%v", e.Name, e.Ts, e.Dur)
			}
			names[e.Name] = true
			if e.Pid != 1 && e.Pid != self {
				workerPids[e.Pid] = true
			}
		case "M":
			if e.Name == "process_name" && e.Args["name"] == "" {
				t.Errorf("process_name metadata for pid %d has no label", e.Pid)
			}
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	// Each map round spawns a fresh worker pool, so a 2-worker run yields
	// at least two distinct PID lanes (2 per round when both stay busy).
	if len(workerPids) < 2 {
		t.Fatalf("trace has %d worker PID lanes (%v), want >= 2", len(workerPids), workerPids)
	}
	for _, wantSpan := range []string{
		"driver", "map_extract", "map_trees", "reduce_counts",
		"resume_validate", "checkpoint_read", "checkpoint_write",
		"job", "load_shard", "build_shard_tree",
	} {
		if !names[wantSpan] {
			t.Errorf("merged trace missing span %q", wantSpan)
		}
	}

	// --- per-shard resource accounting surfaced in Stats ---
	if len(stats.Usage) != 2 {
		t.Fatalf("stats.Usage has %d rows, want 2", len(stats.Usage))
	}
	for _, u := range stats.Usage {
		if u.Jobs != 2 || u.Wall <= 0 {
			t.Errorf("shard %d usage implausible: %+v", u.Shard, u)
		}
	}
	if len(stats.Workers) == 0 {
		t.Error("no spawned-worker rusage rows in stats.Workers")
	}
	for _, w := range stats.Workers {
		if !workerPids[w.PID] {
			t.Errorf("worker usage row pid %d not among traced worker pids %v", w.PID, workerPids)
		}
	}

	// --- captured worker stderr re-tagged with worker_pid ---
	if got := logBuf.String(); !strings.Contains(got, "worker_pid=") {
		t.Errorf("driver log has no captured worker stderr:\n%.400s", got)
	}
}

// The protocol half of the zero-overhead guard: an untraced job's done
// Result must not carry a span batch or even the JSON keys for one.
func TestResultOmitsEmptySpanBatch(t *testing.T) {
	b, err := json.Marshal(Result{Event: "done", Shard: 3, OK: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"spans", "pid", "cpu_ns", "max_rss_kb", "alloc_bytes"} {
		if bytes.Contains(b, []byte(`"`+key+`"`)) {
			t.Errorf("empty Result leaks %q onto the wire: %s", key, b)
		}
	}
}

// httpGet fetches a URL with a deadline and returns the body.
func httpGet(url string) (string, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s: %.200s", url, resp.Status, body)
	}
	return string(body), nil
}

// checkPrometheusText validates the exposition format shape: every
// sample line is `name{labels} value`, and every histogram's buckets
// are le-ordered with cumulative (non-decreasing) counts.
func checkPrometheusText(t *testing.T, text string) {
	t.Helper()
	type bucket struct {
		le    float64
		count int64
	}
	hists := map[string][]bucket{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("metrics line without value: %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Fatalf("metrics line value %q does not parse: %q", val, line)
		}
		switch {
		case strings.Contains(name, "_bucket{"):
			base := name[:strings.Index(name, "_bucket{")]
			leIdx := strings.Index(name, `le="`)
			if leIdx < 0 {
				t.Fatalf("bucket line without le label: %q", line)
			}
			leStr := name[leIdx+4:]
			leStr = leStr[:strings.IndexByte(leStr, '"')]
			le := 0.0
			if leStr == "+Inf" {
				le = float64(1 << 62)
			} else if v, err := strconv.ParseFloat(leStr, 64); err == nil {
				le = v
			} else {
				t.Fatalf("unparseable le %q in %q", leStr, line)
			}
			n, _ := strconv.ParseInt(val, 10, 64)
			key := base + "|" + name[:leIdx] // per-series (labels minus le)
			hists[key] = append(hists[key], bucket{le, n})
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram buckets in /metrics")
	}
	for key, bs := range hists {
		sorted := sort.SliceIsSorted(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		if !sorted {
			t.Errorf("histogram %s buckets not in le order", key)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].count < bs[i-1].count {
				t.Errorf("histogram %s bucket counts not cumulative: %v", key, bs)
				break
			}
		}
	}
}

// syncLog is a race-safe log sink for the gate's concurrent writers.
type syncLog struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncLog) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncLog) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
