package core

import (
	"path/filepath"
	"testing"

	"namer/internal/ast"
)

func TestKnowledgeRoundTrip(t *testing.T) {
	sys, c, res := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	violations := res.Violations
	if len(violations) < 20 {
		t.Skip("not enough violations")
	}
	// Train a classifier so the full state is exercised.
	var vs []*Violation
	var ys []int
	for i, v := range violations {
		if i >= 60 {
			break
		}
		vs = append(vs, v)
		sev, _ := c.Judge(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original)
		if sev != 0 {
			ys = append(ys, 1)
		} else {
			ys = append(ys, 0)
		}
	}
	sys.TrainClassifier(res.Stats, vs, ys)

	path := filepath.Join(t.TempDir(), "knowledge.bin")
	if err := sys.SaveKnowledge(path); err != nil {
		t.Fatal(err)
	}

	// Fresh system: load knowledge, reprocess the same files, rescan.
	sys2 := NewSystem(DefaultConfig(ast.Python))
	if err := sys2.LoadKnowledge(path); err != nil {
		t.Fatal(err)
	}
	if len(sys2.Patterns) != len(sys.Patterns) {
		t.Fatalf("patterns: %d vs %d", len(sys2.Patterns), len(sys.Patterns))
	}
	if sys2.Pairs.Len() != sys.Pairs.Len() {
		t.Fatalf("pairs: %d vs %d", sys2.Pairs.Len(), sys.Pairs.Len())
	}
	if !sys2.HasClassifier() {
		t.Fatal("classifier not restored")
	}
	var files []*InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &InputFile{Repo: r.Name, Path: f.Path, Source: f.Source, Root: f.Root})
		}
	}
	res2 := sys2.ScanFiles(files)
	violations2 := res2.Violations
	if len(violations2) != len(violations) {
		t.Fatalf("violations after reload: %d vs %d", len(violations2), len(violations))
	}
	// Classifier decisions agree on every violation.
	for i := range violations {
		if sys.ClassifyIn(res.Stats, violations[i]) != sys2.ClassifyIn(res2.Stats, violations2[i]) {
			t.Fatalf("classification diverged at violation %d", i)
		}
	}
}
