// Command namer detects and suggests fixes for naming issues in Python
// and Java source trees, following the paper's inference pipeline: parse →
// per-file points-to analysis → AST+ → name paths → pattern matching →
// defect classification → report.
//
// It needs a knowledge file produced by namer-mine (and optionally
// namer-train, which adds the false-positive-pruning classifier):
//
//	namer -lang python -knowledge knowledge-trained.json path/to/code
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"namer/internal/ast"
	"namer/internal/buildinfo"
	"namer/internal/core"
	"namer/internal/obs"
	"namer/internal/pointsto"
	"namer/internal/prof"
)

func main() {
	lang := flag.String("lang", "python", "language: python, java, or go")
	knowledge := flag.String("knowledge", "knowledge.bin", "knowledge file from namer-mine/namer-train")
	all := flag.Bool("all", false, "report every violation, bypassing the classifier (the w/o C ablation)")
	fix := flag.Bool("fix", false, "rewrite the reported identifiers in place")
	parallelism := flag.Int("parallelism", 0,
		"worker count for file processing and scanning (0 = all CPUs, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("namer", buildinfo.String())
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: namer [-lang python|java] [-knowledge file] [-all] path...")
		os.Exit(2)
	}
	lg, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	l, err := ast.ParseLanguage(*lang)
	if err != nil {
		fatal(err)
	}
	cfg := core.DefaultConfig(l)
	cfg.Parallelism = *parallelism
	sys := core.NewSystem(cfg)
	if err := sys.LoadKnowledge(*knowledge); err != nil {
		fatal(fmt.Errorf("loading knowledge: %w (run namer-mine first)", err))
	}

	var files []*core.InputFile
	for _, root := range flag.Args() {
		fs, errs := core.LoadDirectory(root, l)
		for _, e := range errs {
			lg.Warn("load failed", "err", e)
		}
		files = append(files, fs...)
	}
	if len(files) == 0 {
		fatal(fmt.Errorf("no %s files found", *lang))
	}
	res := sys.ScanFiles(files)
	for _, e := range res.Errors {
		lg.Warn("analysis failed", "err", e)
	}

	byFile := make(map[string]*core.InputFile, len(files))
	for _, f := range files {
		byFile[f.Repo+"|"+f.Path] = f
	}
	reports, fixes := 0, 0
	changed := map[string]*core.InputFile{}
	for _, v := range res.Violations {
		if !*all && !sys.ClassifyIn(res.Stats, v) {
			continue
		}
		reports++
		fmt.Println(v.Report())
		if !*fix {
			continue
		}
		f := byFile[v.Stmt.Repo+"|"+v.Stmt.Path]
		if f == nil {
			continue
		}
		if newSrc, ok := core.ApplyFix(f.Source, v); ok {
			f.Source = newSrc
			changed[v.Stmt.Path] = f
			fixes++
			fmt.Println("  fixed:", core.FixReport(v))
		}
	}
	if *fix {
		for _, f := range changed {
			if err := writeBack(flag.Args(), f); err != nil {
				lg.Warn("write-back failed", "err", err)
			}
		}
		fmt.Printf("\napplied %d fix(es) to %d file(s)\n", fixes, len(changed))
	}
	// Precise intra-file argument-selection check (Rice et al., discussed
	// in the paper's §6.1), independent of mined patterns.
	for _, f := range files {
		for _, sw := range pointsto.CheckArgumentSelection(f.Root, l) {
			reports++
			fmt.Printf("%s:%d: arguments %q and %q to %s() appear swapped (formals cross-match)\n",
				f.Path, sw.Line, sw.ArgA, sw.ArgB, sw.Callee)
		}
	}
	if reports == 0 {
		fmt.Println("no naming issues found")
	} else {
		fmt.Printf("\n%d naming issue(s) reported across %d files\n", reports, len(files))
	}
}

// writeBack persists a fixed file under the root it was loaded from.
func writeBack(roots []string, f *core.InputFile) error {
	for _, root := range roots {
		path := filepath.Join(root, f.Path)
		if _, err := os.Stat(path); err == nil {
			return os.WriteFile(path, []byte(f.Source), 0o644)
		}
	}
	return fmt.Errorf("cannot locate %s under the given roots", f.Path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "namer:", err)
	os.Exit(1)
}
