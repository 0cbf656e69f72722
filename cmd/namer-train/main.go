// Command namer-train runs the supervised half of the paper's recipe: it
// scans a corpus with previously mined knowledge, labels a small balanced
// set of violations (§5.1 labels 120), trains the defect classifier
// (linear SVM over the 17 features of Table 1, with standardization and
// PCA), and writes the augmented knowledge file.
//
// Labels come from the corpus's issues.json ground truth; for real-world
// corpora that file would be produced by manual inspection.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"namer/internal/ast"
	"namer/internal/buildinfo"
	"namer/internal/core"
	"namer/internal/corpus"
	"namer/internal/obs"
)

func main() {
	lang := flag.String("lang", "python", "language: python, java, or go")
	dir := flag.String("dir", "corpus", "corpus directory")
	knowledge := flag.String("knowledge", "knowledge.bin", "input knowledge file (from namer-mine)")
	issues := flag.String("issues", "", "ground-truth labels (default <dir>/issues.json)")
	out := flag.String("out", "knowledge-trained.bin",
		"output knowledge file (compact binary; use a .json extension for the debug format)")
	trainSize := flag.Int("train", 120, "labeled violations to train on (balanced)")
	seed := flag.Int64("seed", 1, "sampling seed")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("namer-train", buildinfo.String())
		return
	}
	lg, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}

	l, err := ast.ParseLanguage(*lang)
	if err != nil {
		fatal(err)
	}
	if *issues == "" {
		*issues = filepath.Join(*dir, "issues.json")
	}

	sys := core.NewSystem(core.DefaultConfig(l))
	if err := sys.LoadKnowledge(*knowledge); err != nil {
		fatal(err)
	}
	files, errs := core.LoadDirectory(*dir, l)
	for _, e := range errs {
		lg.Warn("load failed", "err", e)
	}
	res := sys.ScanFiles(files)
	for _, e := range res.Errors {
		lg.Warn("analysis failed", "err", e)
	}
	violations := res.Violations
	fmt.Printf("found %d violations over %d files\n", len(violations), len(files))

	gt, err := corpus.ReadIssues(*issues)
	if err != nil {
		fatal(fmt.Errorf("reading labels: %w", err))
	}
	judge := indexIssues(gt)

	// Balanced sample, as in §5.1: half true issues, half false positives.
	rng := rand.New(rand.NewSource(*seed))
	perm := rng.Perm(len(violations))
	var vs []*core.Violation
	var ys []int
	pos, neg := 0, 0
	half := *trainSize / 2
	for _, i := range perm {
		v := violations[i]
		isIssue := judge(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original)
		switch {
		case isIssue && pos < half:
			vs = append(vs, v)
			ys = append(ys, 1)
			pos++
		case !isIssue && neg < half:
			vs = append(vs, v)
			ys = append(ys, 0)
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		fatal(fmt.Errorf("degenerate labels: %d true, %d false", pos, neg))
	}
	sys.TrainClassifier(res.Stats, vs, ys)
	fmt.Printf("trained the defect classifier on %d labeled violations (%d true, %d false)\n",
		len(vs), pos, neg)

	kept := 0
	for _, v := range violations {
		if sys.ClassifyIn(res.Stats, v) {
			kept++
		}
	}
	fmt.Printf("classifier keeps %d/%d violations as reports\n", kept, len(violations))

	if err := sys.SaveKnowledge(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// indexIssues builds a judge function over the ground-truth issues.
func indexIssues(issues []*corpus.Issue) func(repo, path string, line int, original string) bool {
	type key struct{ repo, path string }
	byFile := map[key][]*corpus.Issue{}
	for _, is := range issues {
		k := key{is.Repo, is.Path}
		byFile[k] = append(byFile[k], is)
	}
	return func(repo, path string, line int, original string) bool {
		for _, is := range byFile[key{repo, path}] {
			if is.Original != original && is.Fixed != original {
				continue
			}
			d := line - is.Line
			if d < 0 {
				d = -d
			}
			if line == 0 || is.Line == 0 || d <= 1 {
				return true
			}
		}
		return false
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "namer-train:", err)
	os.Exit(1)
}
