// Quickstart: the smallest end-to-end tour of the Namer API — generate a
// tiny Big Code corpus, mine confusing word pairs and name patterns, scan
// for violations, train the defect classifier on a handful of labeled
// violations, and print the surviving reports.
package main

import (
	"fmt"

	"namer/internal/ast"
	"namer/internal/core"
	"namer/internal/corpus"
)

func main() {
	// 1. A corpus (stands in for millions of GitHub files; see DESIGN.md).
	ccfg := corpus.DefaultConfig(ast.Python)
	ccfg.Repos = 16
	ccfg.FilesPerRepo = 4
	ccfg.IssueRate = 0.08
	c := corpus.Generate(ccfg)
	fmt.Printf("corpus: %d files, %d ground-truth issues\n", c.TotalFiles(), len(c.Issues))

	// 2. Build the system: mine pairs from commit history, process files
	// (per-file points-to analysis + AST+ + name paths), mine patterns.
	cfg := core.DefaultConfig(ast.Python)
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
	fmt.Printf("mined:  %d confusing word pairs, %d name patterns\n", sys.Pairs.Len(), len(sys.Patterns))

	// 3. Scan for violations of the mined patterns.
	res := sys.Scan()
	violations := res.Violations
	fmt.Printf("scan:   %d distinct violations\n", len(violations))

	// 4. Small supervision: label a few violations with the corpus's
	// ground truth (in the paper this is 120 manual inspections) and
	// train the classifier.
	var train []*core.Violation
	var labels []int
	pos, neg := 0, 0
	for _, v := range violations {
		sev, _ := c.Judge(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original)
		switch {
		case sev != corpus.NotIssue && pos < 30:
			train = append(train, v)
			labels = append(labels, 1)
			pos++
		case sev == corpus.NotIssue && neg < 30:
			train = append(train, v)
			labels = append(labels, 0)
			neg++
		}
	}
	sys.TrainClassifier(res.Stats, train, labels)

	// 5. Report.
	fmt.Println("\nreports:")
	shown := 0
	for _, v := range violations {
		if !sys.ClassifyIn(res.Stats, v) {
			continue
		}
		shown++
		if shown <= 8 {
			fmt.Println(v.Report())
		}
	}
	fmt.Printf("... %d reports total (classifier pruned %d violations)\n",
		shown, len(violations)-shown)
}
