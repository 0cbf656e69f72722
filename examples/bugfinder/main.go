// Bugfinder: scans a generated multi-repository corpus end to end — the
// workload the paper's evaluation runs at GitHub scale — and prints a
// digest: per-category detection counts against the ground truth, the
// classifier's effect on precision, and a handful of sample reports for
// both languages.
package main

import (
	"fmt"

	"namer/internal/ast"
	"namer/internal/core"
	"namer/internal/corpus"
)

func main() {
	for _, lang := range []ast.Language{ast.Python, ast.Java} {
		scan(lang)
	}
}

func scan(lang ast.Language) {
	fmt.Printf("==== %s ====\n", lang)
	ccfg := corpus.DefaultConfig(lang)
	ccfg.Repos = 24
	ccfg.FilesPerRepo = 5
	ccfg.IssueRate = 0.06
	ccfg.AnomalyRate = 0.12
	c := corpus.Generate(ccfg)

	cfg := core.DefaultConfig(lang)
	cfg.Mining.MinPatternCount = c.TotalFiles() / 3
	sys := core.NewSystem(cfg)
	sys.MinePairs(c.Commits)
	var files []*core.InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &core.InputFile{Repo: r.Name, Path: f.Path, Source: f.Source, Root: f.Root})
		}
	}
	sys.ProcessFiles(files)
	sys.MinePatterns()
	res := sys.Scan()
	violations := res.Violations

	// Train the classifier on a small balanced sample of ground-truth
	// labels (the paper's "small supervision").
	var train []*core.Violation
	var labels []int
	pos, neg := 0, 0
	for _, v := range violations {
		sev, _ := c.Judge(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original)
		switch {
		case sev != corpus.NotIssue && pos < 40:
			train = append(train, v)
			labels = append(labels, 1)
			pos++
		case sev == corpus.NotIssue && neg < 40:
			train = append(train, v)
			labels = append(labels, 0)
			neg++
		}
	}
	sys.TrainClassifier(res.Stats, train, labels)

	// Digest.
	type stats struct{ found, reported int }
	byCat := map[string]*stats{}
	var rawTP, rawAll, repTP, repAll int
	samples := 0
	for _, v := range violations {
		sev, cat := c.Judge(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original)
		rawAll++
		isIssue := sev != corpus.NotIssue
		if isIssue {
			rawTP++
			if byCat[cat] == nil {
				byCat[cat] = &stats{}
			}
			byCat[cat].found++
		}
		if sys.ClassifyIn(res.Stats, v) {
			repAll++
			if isIssue {
				repTP++
				byCat[cat].reported++
			}
			if samples < 3 {
				samples++
				fmt.Println(v.Report())
			}
		}
	}
	fmt.Printf("\nviolations: %d (precision %.0f%%) -> reports: %d (precision %.0f%%)\n",
		rawAll, 100*float64(rawTP)/float64(rawAll),
		repAll, 100*float64(repTP)/float64(repAll))
	fmt.Println("per-category detections (found -> kept by classifier):")
	for cat, s := range byCat {
		fmt.Printf("  %-16s %3d -> %3d\n", cat, s.found, s.reported)
	}
	fmt.Println()
}
