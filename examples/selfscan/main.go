// Selfscan: Namer eats its own dogfood. The Go front end (a third
// language, demonstrating the paper's §5.1 genericity claim) parses this
// repository's own source; consistency name patterns are mined from it
// and the most anomalous naming spots are reported. With no commit
// history there are no confusing word pairs, so this is a pure
// consistency-pattern run — the unsupervised half of the recipe.
//
// Run from the repository root:
//
//	go run ./examples/selfscan
package main

import (
	"fmt"
	"os"
	"sort"

	"namer/internal/ast"
	"namer/internal/core"
)

func main() {
	root := "internal"
	if _, err := os.Stat(root); err != nil {
		fmt.Fprintln(os.Stderr, "run from the repository root (internal/ not found)")
		os.Exit(1)
	}
	files, errs := core.LoadDirectory(root, ast.Go)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "warning:", e)
	}
	fmt.Printf("parsed %d Go files from %s/\n", len(files), root)

	cfg := core.DefaultConfig(ast.Go)
	cfg.Mining.MinPatternCount = 8
	// §2: "we allow violations to be triggered at lower confidence so that
	// most issues are not missed" — without a classifier to prune, rank by
	// pattern adoption instead.
	cfg.Mining.MinSatisfactionRatio = 0.7
	sys := core.NewSystem(cfg)
	sys.MinePairs(nil) // no commit history: consistency patterns only
	sys.ProcessFiles(files)
	sys.MinePatterns()
	fmt.Printf("processed %d statements, mined %d consistency patterns\n",
		len(sys.Stmts), len(sys.Patterns))

	violations := sys.Scan().Violations
	fmt.Printf("found %d naming anomalies (unclassified — no labeled data for Go)\n\n", len(violations))

	// Rank by how strongly the violated pattern is adopted elsewhere.
	sort.SliceStable(violations, func(i, j int) bool {
		ri := satisfactionRate(violations[i])
		rj := satisfactionRate(violations[j])
		if ri != rj {
			return ri > rj
		}
		return violations[i].Stmt.Path < violations[j].Stmt.Path
	})
	max := 12
	if len(violations) < max {
		max = len(violations)
	}
	for _, v := range violations[:max] {
		fmt.Println(v.Report())
	}
	if len(violations) > max {
		fmt.Printf("... and %d more\n", len(violations)-max)
	}
}

func satisfactionRate(v *core.Violation) float64 {
	p := v.Pattern
	if p.MatchCount == 0 {
		return 0
	}
	return float64(p.SatisfyCount) / float64(p.MatchCount)
}
