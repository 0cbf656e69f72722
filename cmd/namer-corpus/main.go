// Command namer-corpus generates a synthetic "Big Code" corpus on disk:
// repositories of Python or Java files with ground-truth naming issues
// (issues.json) and a commit history of naming fixes (commits/). It is the
// data source for the namer-mine → namer-train → namer toolchain and
// stands in for the paper's GitHub dataset (see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"namer/internal/ast"
	"namer/internal/buildinfo"
	"namer/internal/corpus"
	"namer/internal/obs"
)

func main() {
	lang := flag.String("lang", "python", "language: python or java")
	out := flag.String("out", "corpus", "output directory")
	repos := flag.Int("repos", 36, "number of repositories")
	files := flag.Int("files", 5, "files per repository")
	issueRate := flag.Float64("issue-rate", 0.05, "probability an idiom instance is buggy")
	anomalyRate := flag.Float64("anomaly-rate", 0.15, "probability of a legitimate anomaly")
	seed := flag.Int64("seed", 1, "generation seed")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("namer-corpus", buildinfo.String())
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
	if l == ast.Go {
		fatal(fmt.Errorf("the synthetic corpus generator emits python and java only"))
	}
	cfg := corpus.DefaultConfig(l)
	cfg.Repos = *repos
	cfg.FilesPerRepo = *files
	cfg.IssueRate = *issueRate
	cfg.AnomalyRate = *anomalyRate
	cfg.Seed = *seed
	lg.Debug("generating corpus", "lang", *lang, "repos", *repos,
		"files_per_repo", *files, "seed", *seed)
	c := corpus.Generate(cfg)
	if err := c.WriteTo(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d files in %d repositories to %s (%d ground-truth issues, %d commits)\n",
		c.TotalFiles(), len(c.Repos), *out, len(c.Issues), len(c.Commits))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "namer-corpus:", err)
	os.Exit(1)
}
