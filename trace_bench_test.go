// BENCH_trace.json: per-stage span durations of one traced mining run
// (make bench). Where BENCH_mining.json tracks ns/op of the stages in
// isolation, this file snapshots how one end-to-end run divides its
// wall time between them — the same data a namer-mine -trace export
// shows in chrome://tracing, reduced to stage totals.
package namer

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"namer/internal/ast"
	"namer/internal/core"
	"namer/internal/corpus"
	"namer/internal/obs"
)

// traceBenchStage is one aggregated span name of BENCH_trace.json.
type traceBenchStage struct {
	Name    string `json:"name"`
	Spans   int    `json:"spans"`
	TotalNs int64  `json:"total_ns"`
	MaxNs   int64  `json:"max_ns"`
}

type traceBenchFile struct {
	CPUs     int               `json:"cpus"`
	Corpus   string            `json:"corpus"`
	WallNs   int64             `json:"wall_ns"`
	Spans    int               `json:"spans"`
	Coverage float64           `json:"coverage"` // top-level stage time / wall time
	Stages   []traceBenchStage `json:"stages"`
}

// TestWriteTraceBenchJSON traces one full process+mine+scan run and
// writes the per-stage span durations to the file named by
// BENCH_TRACE_JSON, so the shape of the pipeline's wall time is tracked
// commit over commit alongside the ns/op numbers. Without the env var
// the test is a no-op.
func TestWriteTraceBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_TRACE_JSON")
	if out == "" {
		t.Skip("set BENCH_TRACE_JSON=<file> to record a traced mining run (make bench)")
	}
	opts := benchOptions(ast.Python)
	c := corpus.Generate(opts.Corpus)
	files := benchCorpusFiles(c)
	sys := core.NewSystem(opts.System)
	sys.MinePairs(c.Commits)

	ctx, tr := obs.NewTrace(context.Background(), "bench-mine", "")
	tr.SetMaxSpans(1 << 20)
	sys.ProcessFilesCtx(ctx, files)
	sys.MinePatternsCtx(ctx)
	if res := sys.ScanCtx(ctx); len(res.Violations) == 0 {
		t.Fatal("no violations")
	}
	tr.Finish()

	spans := tr.Spans()
	agg := map[string]*traceBenchStage{}
	order := []string{}
	var topLevel time.Duration
	rootID := -1
	for _, s := range spans {
		if s.Parent == -1 {
			rootID = s.ID
		}
	}
	for _, s := range spans {
		if s.Parent == -1 {
			continue
		}
		if s.Parent == rootID {
			topLevel += s.Duration
		}
		st := agg[s.Name]
		if st == nil {
			st = &traceBenchStage{Name: s.Name}
			agg[s.Name] = st
			order = append(order, s.Name)
		}
		st.Spans++
		st.TotalNs += int64(s.Duration)
		if int64(s.Duration) > st.MaxNs {
			st.MaxNs = int64(s.Duration)
		}
	}
	file := traceBenchFile{
		CPUs: runtime.NumCPU(),
		Corpus: fmt.Sprintf("python synthetic, %d repos x %d files",
			opts.Corpus.Repos, opts.Corpus.FilesPerRepo),
		WallNs:   int64(tr.Duration()),
		Spans:    len(spans),
		Coverage: float64(topLevel) / float64(tr.Duration()),
	}
	for _, name := range order {
		file.Stages = append(file.Stages, *agg[name])
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d stages, %.0f%% coverage)", out, len(file.Stages), 100*file.Coverage)
}
