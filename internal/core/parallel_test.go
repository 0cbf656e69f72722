package core

import (
	"testing"

	"namer/internal/ast"
)

// The parallel pipeline (worker-pool file processing, sharded mining,
// sharded scan with per-shard statistics, and the pooled front end and
// match stage of ScanFiles and DiffFiles) must be byte-identical to the
// serial reference path: same patterns in the same order, same
// violations in the same order, and the same feature vectors (which read
// the merged statistics index).
func TestParallelPipelineMatchesSerial(t *testing.T) {
	ccfg := smallCorpusConfig(ast.Python)
	serialCfg := smallSystemConfig(ast.Python)
	serialCfg.Parallelism = 1
	parallelCfg := smallSystemConfig(ast.Python)
	parallelCfg.Parallelism = 8

	serialSys, c, serialRes := buildSystem(t, ast.Python, serialCfg, ccfg)
	parSys, _, parRes := buildSystem(t, ast.Python, parallelCfg, ccfg)

	if len(serialSys.Patterns) == 0 {
		t.Fatal("no patterns mined, nothing compared")
	}
	if len(serialSys.Patterns) != len(parSys.Patterns) {
		t.Fatalf("pattern counts differ: serial %d, parallel %d",
			len(serialSys.Patterns), len(parSys.Patterns))
	}
	for i := range serialSys.Patterns {
		if serialSys.Patterns[i].Key() != parSys.Patterns[i].Key() {
			t.Fatalf("pattern %d differs:\n serial   %s\n parallel %s",
				i, serialSys.Patterns[i].Key(), parSys.Patterns[i].Key())
		}
	}
	sameScan(t, "Scan", serialSys, serialRes, parSys, parRes)

	// ScanFiles parses raw sources on the pool; DiffFiles diffs every
	// file against the previous file's source, so each pair has changed
	// statements on both sides.
	var files []*InputFile
	var diffs []DiffFile
	prev := ""
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &InputFile{Repo: r.Name, Path: f.Path, Source: f.Source})
			diffs = append(diffs, DiffFile{Repo: r.Name, Path: f.Path, Before: prev, After: f.Source})
			prev = f.Source
		}
	}
	sameScan(t, "ScanFiles", serialSys, serialSys.ScanFiles(files), parSys, parSys.ScanFiles(files))

	sd, pd := serialSys.DiffFiles(diffs), parSys.DiffFiles(diffs)
	if len(sd.Errors) != len(pd.Errors) || sd.Changed != pd.Changed || sd.Statements != pd.Statements {
		t.Fatalf("DiffFiles differs: serial %d errors/%d changed/%d statements, parallel %d/%d/%d",
			len(sd.Errors), sd.Changed, sd.Statements, len(pd.Errors), pd.Changed, pd.Statements)
	}
	sameScan(t, "DiffFiles", serialSys, &ScanResult{Violations: sd.Introduced, Stats: sd.Stats},
		parSys, &ScanResult{Violations: pd.Introduced, Stats: pd.Stats})
}
