package core

import (
	"context"
	"testing"

	"namer/internal/ast"
	"namer/internal/corpus"
	"namer/internal/obs"
)

// traceIndex groups a finished trace's spans for structural assertions.
func traceIndex(tr *obs.Trace) (byName map[string][]obs.SpanInfo, nameOf map[int]string) {
	byName = map[string][]obs.SpanInfo{}
	nameOf = map[int]string{-1: ""}
	for _, s := range tr.Spans() {
		byName[s.Name] = append(byName[s.Name], s)
		nameOf[s.ID] = s.Name
	}
	return byName, nameOf
}

// TestPipelineSpanStructure traces a full mine-and-scan run and checks
// the span tree mirrors the pipeline: process_files over per-file
// spans, mine_patterns over per-type mine trees with the four FP stages
// (pass-1 count, tree build, FP-growth, prune), scan over per-shard
// spans — each stage parented where the pipeline nests it.
func TestPipelineSpanStructure(t *testing.T) {
	c := corpus.Generate(smallCorpusConfig(ast.Python))
	sys := NewSystem(smallSystemConfig(ast.Python))
	sys.MinePairs(c.Commits)
	var files []*InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &InputFile{Repo: r.Name, Path: f.Path, Source: f.Source, Root: f.Root})
		}
	}

	ctx, tr := obs.NewTrace(context.Background(), "test-run", "")
	tr.SetMaxSpans(1 << 18)
	sys.ProcessFilesCtx(ctx, files)
	sys.MinePatternsCtx(ctx)
	res := sys.ScanCtx(ctx)
	tr.Finish()
	if len(sys.Patterns) == 0 || len(res.Violations) == 0 {
		t.Fatalf("pipeline degenerate: %d patterns, %d violations", len(sys.Patterns), len(res.Violations))
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace dropped %d spans", tr.Dropped())
	}

	byName, nameOf := traceIndex(tr)
	mustParent := func(child, parent string) {
		t.Helper()
		spans := byName[child]
		if len(spans) == 0 {
			t.Fatalf("no %q spans recorded", child)
		}
		for _, s := range spans {
			if nameOf[s.Parent] != parent {
				t.Fatalf("%q span parented under %q, want %q", child, nameOf[s.Parent], parent)
			}
		}
	}
	mustParent("process_files", "test-run")
	mustParent("mine_patterns", "test-run")
	mustParent("scan", "test-run")
	mustParent("mine", "mine_patterns")
	for _, stage := range []string{"pass1_count", "build_tree", "fp_growth", "prune_uncommon"} {
		mustParent(stage, "mine")
		// Every per-type mine tree runs every stage exactly once.
		if got, want := len(byName[stage]), len(byName["mine"]); got != want {
			t.Errorf("%d %q spans for %d mine trees", got, stage, want)
		}
	}
	mustParent("shard", "scan")
	if got, want := len(byName["file"]), len(files); got != want {
		t.Errorf("%d file spans for %d input files", got, want)
	}
	mustParent("file", "process_files")
}

// TestScanFilesTimingsDeriveFromSpans pins the StageTimings contract:
// with tracing on, the reported Process/Match durations are the span
// durations; with tracing off, the stopwatch fallback still fills them.
func TestScanFilesTimingsDeriveFromSpans(t *testing.T) {
	sys, c, _ := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	var files []*InputFile
	for _, f := range c.Repos[0].Files {
		files = append(files, &InputFile{Repo: c.Repos[0].Name, Path: f.Path, Source: f.Source, Root: f.Root})
	}

	ctx, tr := obs.NewTrace(context.Background(), "scan-files", "")
	res := sys.ScanFilesCtx(ctx, files)
	tr.Finish()
	byName, _ := traceIndex(tr)
	if n := len(byName["process"]); n != 1 {
		t.Fatalf("got %d process spans, want 1", n)
	}
	if n := len(byName["match"]); n != 1 {
		t.Fatalf("got %d match spans, want 1", n)
	}
	if got, want := res.Timings.Process, byName["process"][0].Duration; got != want {
		t.Errorf("Timings.Process = %v, span = %v", got, want)
	}
	if got, want := res.Timings.Match, byName["match"][0].Duration; got != want {
		t.Errorf("Timings.Match = %v, span = %v", got, want)
	}

	// Untraced: the same call must still produce non-zero timings.
	res2 := sys.ScanFilesCtx(context.Background(), files)
	if res2.Timings.Process <= 0 || res2.Timings.Match < 0 {
		t.Errorf("untraced timings degenerate: %+v", res2.Timings)
	}
}
