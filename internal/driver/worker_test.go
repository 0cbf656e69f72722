package driver

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// runWorker serves one real stmts job through ServeWorker, the way a
// spawned worker does, logging to lg, and returns what it wrote to
// stdout: progress lines, then the done line.
func runWorker(tb testing.TB, lg *slog.Logger) []byte {
	tb.Helper()
	dir := tb.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "repo"), 0o755); err != nil {
		tb.Fatal(err)
	}
	src := "def upload(path):\n    upload_cnt = upload_count + 1\n    return path\n"
	if err := os.WriteFile(filepath.Join(dir, "repo", "a.py"), []byte(src), 0o644); err != nil {
		tb.Fatal(err)
	}
	job, err := json.Marshal(Job{Phase: "stmts", OutPath: filepath.Join(dir, "stmts.ck"),
		CorpusDir: dir, Lang: "python", Files: []string{"repo/a.py"}})
	if err != nil {
		tb.Fatal(err)
	}
	var out bytes.Buffer
	if err := ServeWorker(bytes.NewReader(append(job, '\n')), &out, lg); err != nil {
		tb.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if done := lines[len(lines)-1]; !bytes.Contains(done, []byte(`"event":"done","shard":0,"phase":"stmts","ok":true`)) {
		tb.Fatalf("worker wrote no successful done line: %s", out.Bytes())
	}
	return out.Bytes()
}

// A worker's stderr reaches the driver's stderr untouched, so under
// -log-format json its records stay JSON objects with their own keys,
// and worker_pid tells the workers apart.
func TestServeWorkerTagsRecordsWithPID(t *testing.T) {
	var logBuf bytes.Buffer
	runWorker(t, slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	msgs := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not a JSON object: %s", line)
		}
		if pid, _ := rec["worker_pid"].(float64); int(pid) != os.Getpid() {
			t.Errorf("record has worker_pid %v, want %d: %s", rec["worker_pid"], os.Getpid(), line)
		}
		msg, _ := rec["msg"].(string)
		msgs[msg] = true
	}
	for _, want := range []string{"job start", "job done"} {
		if !msgs[want] {
			t.Errorf("no %q record in:\n%s", want, logBuf.String())
		}
	}
}

// FuzzWorkerResult feeds arbitrary bytes to the driver's side of the
// worker protocol, the decode loop of procExecutor.run. It must never
// panic; it forwards every progress line before the first other line,
// returns that line when it is a done Result, and is an error otherwise.
func FuzzWorkerResult(f *testing.F) {
	f.Add(runWorker(f, nil))
	f.Add([]byte(`{"event":"done","ok":true}`))
	f.Add([]byte(`{"event":"progress","done":1,"extra":2}` + "\n" + `{"event":"spans"}`))
	f.Add([]byte(`{"event":"progress","done":1}` + "\n" + `{"event":"do`))
	f.Fuzz(func(t *testing.T, data []byte) {
		type progress struct{ done, extra int }
		var got []progress
		res, err := readResult(json.NewDecoder(bytes.NewReader(data)), 0, func(done, extra int) {
			got = append(got, progress{done, extra})
		})

		var want []progress
		var done *Result
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			var r Result
			if dec.Decode(&r) != nil {
				break
			}
			if r.Event == "progress" {
				want = append(want, progress{r.Done, r.Extra})
				continue
			}
			if r.Event == "done" {
				done = &r
			}
			break
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("forwarded progress %v, want %v", got, want)
		}
		switch {
		case done == nil && err == nil:
			t.Fatalf("no done line, but returned %+v without error", res)
		case done != nil && err != nil:
			t.Fatalf("done line %+v returned error %v", *done, err)
		case done != nil && !reflect.DeepEqual(res, *done):
			t.Fatalf("returned %+v, want the done line %+v", res, *done)
		}
	})
}
