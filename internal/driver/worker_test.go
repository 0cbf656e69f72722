package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"namer/internal/obs"
)

// A worker that dies before answering leaves only its stderr to say why.
// Every captured line must reach the driver's log whatever the driver's
// level: a worker's slog record keeps its own level, and anything else —
// here a Go runtime panic — is logged at Error.
func TestWorkerStderrReachesLogAtAnyLevel(t *testing.T) {
	dir, _ := testCorpus(t)
	script := "echo 'time=2026-01-02T03:04:05.000Z level=WARN msg=slow' >&2; echo 'panic: boom' >&2; exit 2"
	for _, level := range []slog.Level{slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		var logBuf syncLog
		opts := driverOptions(dir, t.TempDir(), 1)
		opts.WorkerCommand = []string{"sh", "-c", script}
		opts.Workers = 1
		opts.Log = slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: level}))
		if _, _, err := Run(context.Background(), opts); err == nil {
			t.Fatalf("driver at %v: run with a dying worker succeeded", level)
		}
		got := logBuf.String()
		for _, want := range []string{
			`level=WARN msg="worker: time=2026-01-02T03:04:05.000Z level=WARN msg=slow" worker_pid=`,
			`level=ERROR msg="worker: panic: boom" worker_pid=`,
		} {
			if !strings.Contains(got, want) {
				t.Errorf("driver at %v: log lacks %q:\n%s", level, want, got)
			}
		}
	}
}

func TestWorkerLevel(t *testing.T) {
	for line, want := range map[string]slog.Level{
		`time=2026-01-02T03:04:05.000Z level=DEBUG msg="job start" shard=0`: slog.LevelDebug,
		`time=2026-01-02T03:04:05.000Z level=INFO msg=x`:                    slog.LevelInfo,
		`{"time":"2026-01-02T03:04:05Z","level":"WARN","msg":"x"}`:          slog.LevelWarn,
		`panic: level=INFO`:                                      slog.LevelError,
		`goroutine 1 [running]:`:                                 slog.LevelError,
		`time=2026-01-02T03:04:05.000Z msg=x`:                    slog.LevelError,
		`{"time":"2026-01-02T03:04:05Z","level":"LOUD","msg":1}`: slog.LevelError,
	} {
		if got := workerLevel(line); got != want {
			t.Errorf("workerLevel(%q) = %v, want %v", line, got, want)
		}
	}
}

// tracedDoneLine runs one real stmts job with tracing on through
// ServeWorker, the way a spawned worker does, and returns its done
// Result line.
func tracedDoneLine(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "repo"), 0o755); err != nil {
		tb.Fatal(err)
	}
	src := "def upload(path):\n    upload_cnt = upload_count + 1\n    return path\n"
	if err := os.WriteFile(filepath.Join(dir, "repo", "a.py"), []byte(src), 0o644); err != nil {
		tb.Fatal(err)
	}
	job, err := json.Marshal(Job{Phase: "stmts", OutPath: filepath.Join(dir, "stmts.ck"), Trace: true,
		CorpusDir: dir, Lang: "python", Files: []string{"repo/a.py"}})
	if err != nil {
		tb.Fatal(err)
	}
	var out bytes.Buffer
	if err := ServeWorker(bytes.NewReader(append(job, '\n')), &out, nil); err != nil {
		tb.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	done := lines[len(lines)-1]
	if !bytes.Contains(done, []byte(`"event":"done"`)) || !bytes.Contains(done, []byte(`"spans":[`)) {
		tb.Fatalf("worker wrote no traced done line: %s", out.Bytes())
	}
	return done
}

// FuzzWorkerResult feeds arbitrary bytes through the driver's side of the
// worker protocol: decode one Result line as procExecutor.run does, then
// graft its span batch onto a trace. An accepted batch has only -1 or
// earlier parents and no negative durations, and the Chrome export of
// the merged trace is valid JSON.
func FuzzWorkerResult(f *testing.F) {
	f.Add(tracedDoneLine(f))
	f.Add([]byte(`{"event":"done","ok":true,"pid":7,"spans":[{"n":"a","p":1,"s":1,"d":1},{"n":"b","p":0,"s":1,"d":1}]}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var res Result
		if json.NewDecoder(bytes.NewReader(line)).Decode(&res) != nil {
			return
		}
		_, tr := obs.NewTrace(context.Background(), "driver", "")
		if tr.AddExternalSpans(res.PID, "worker", res.Spans) != nil {
			return
		}
		for i, s := range res.Spans {
			if s.Parent < -1 || int(s.Parent) >= i || s.DurNs < 0 {
				t.Fatalf("accepted span %d with parent %d and duration %d", i, s.Parent, s.DurNs)
			}
		}
		tr.Finish()
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("Chrome export is not valid JSON: %s", buf.Bytes())
		}
	})
}
