// Command namer-eval regenerates every table of the paper's evaluation
// (§5) on the synthetic Big Code corpus: precision and ablations (Tables
// 2 and 5), example reports (Tables 3 and 6), the per-pattern-type
// breakdown (Table 4), the simulated user study (Tables 7 and 8),
// classifier feature weights (Table 9), the GGNN/Great comparison (Tables
// 10 and 11), and the mining and cross-validation statistics of §5.2/§5.3.
//
//	namer-eval -lang both            # everything (used to produce EXPERIMENTS.md)
//	namer-eval -lang python -quick   # smaller corpus, faster neural training
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"namer/internal/ast"
	"namer/internal/buildinfo"
	"namer/internal/eval"
	"namer/internal/obs"
)

func main() {
	lang := flag.String("lang", "both", "language: python, java, or both")
	quick := flag.Bool("quick", false, "smaller corpus and faster neural training")
	skipNeural := flag.Bool("skip-neural", false, "skip the GGNN/Great comparison")
	seed := flag.Int64("seed", 7, "evaluation seed")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("namer-eval", buildinfo.String())
		return
	}
	lg, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		obs.Fatal(nil, err)
	}

	langs := []ast.Language{ast.Python, ast.Java}
	switch *lang {
	case "python", "py":
		langs = []ast.Language{ast.Python}
	case "java":
		langs = []ast.Language{ast.Java}
	case "both":
	default:
		obs.Fatal(lg, fmt.Errorf("unknown language %q", *lang))
	}

	for _, l := range langs {
		lg.Debug("evaluation starting", "lang", l.String(), "seed", *seed)
		evaluate(l, *quick, *skipNeural, *seed)
	}
}

func evaluate(lang ast.Language, quick, skipNeural bool, seed int64) {
	opts := eval.DefaultOptions(lang)
	opts.Seed = seed
	if quick {
		opts.Corpus.Repos = 18
		opts.Corpus.FilesPerRepo = 4
		opts.System.Mining.MinPatternCount = opts.Corpus.Repos * opts.Corpus.FilesPerRepo / 3
		opts.TrainSize = 80
		opts.TestSize = 200
	}

	banner("%s evaluation (corpus: %d repos × %d files, issue rate %.0f%%, anomaly rate %.0f%%)",
		lang, opts.Corpus.Repos, opts.Corpus.FilesPerRepo,
		100*opts.Corpus.IssueRate, 100*opts.Corpus.AnomalyRate)

	start := time.Now()
	run := eval.NewRun(opts)
	fmt.Printf("corpus built and scanned in %v: %d violations over %d patterns\n\n",
		time.Since(start).Round(time.Millisecond), len(run.Violations), len(run.Sys.Patterns))

	tableNo, exampleNo, neuralNo := "2", "3", "10"
	if lang == ast.Java {
		tableNo, exampleNo, neuralNo = "5", "6", "11"
	}

	banner("Table %s: precision of Namer and ablations (%s)", tableNo, lang)
	rows := run.PrecisionTable()
	fmt.Print(eval.FormatPrecisionTable(rows))
	fmt.Println()

	banner("Table %s: example reports (%s)", exampleNo, lang)
	for _, ex := range run.ExampleReports(3) {
		fmt.Printf("[%s / %s]\n  %s\n  suggested fix: %s -> %s\n",
			ex.Severity, orDash(ex.Category), ex.Statement, ex.Original, ex.Suggested)
	}
	fmt.Println()

	banner("Table 4 analogue: per-pattern-type breakdown (%s)", lang)
	fmt.Print(eval.FormatBreakdown(run.PatternBreakdown(100)))
	share := run.ReportTypeShare()
	fmt.Printf("report share: consistency %.0f%%, confusing word %.0f%%, both %.0f%%\n\n",
		100*share.Consistency, 100*share.Confusing, 100*share.Both)

	banner("Mining statistics (§5.2/§5.3, %s)", lang)
	st := run.Mining()
	fmt.Printf("name patterns mined:       %d\n", st.Patterns)
	fmt.Printf("confusing word pairs:      %d\n", st.ConfusingPairs)
	fmt.Printf("statements with violation: %d\n", st.ViolatingStatements)
	fmt.Printf("files with violation:      %d/%d (%.0f%%)\n",
		st.ViolatingFiles, st.TotalFiles, 100*float64(st.ViolatingFiles)/float64(st.TotalFiles))
	fmt.Printf("repos with violation:      %d/%d (%.0f%%)\n\n",
		st.ViolatingRepos, st.TotalRepos, 100*float64(st.ViolatingRepos)/float64(st.TotalRepos))

	banner("Cross-validation (§5.1 model selection, %s)", lang)
	best, cv := run.CrossValidation(30)
	for _, name := range []string{"svm", "logreg", "lda"} {
		m := cv[name]
		mark := " "
		if name == best {
			mark = "*"
		}
		fmt.Printf("%s %-7s accuracy=%.2f precision=%.2f recall=%.2f f1=%.2f\n",
			mark, name, m.Accuracy, m.Precision, m.Recall, m.F1)
	}
	fmt.Println()

	banner("Table 9: classifier feature weights (%s)", lang)
	fmt.Printf("%-22s %10s %10s %10s\n", "Feature", "File", "Repo", "Dataset")
	for _, w := range run.FeatureWeightTable() {
		ds := "-"
		if w.HasData {
			ds = fmt.Sprintf("%+.3f", w.Dataset)
		}
		fmt.Printf("%-22s %+10.3f %+10.3f %10s\n", w.Feature, w.File, w.Repo, ds)
	}
	fmt.Println()

	if lang == ast.Python {
		banner("Table 7: user study items")
		items := run.UserStudyItems()
		for _, it := range items {
			fmt.Printf("[%s] %s  (fix: %s -> %s)\n", it.Category, it.Statement, it.Original, it.Suggested)
		}
		fmt.Println()
		banner("Table 8: simulated user study (7 developers)")
		fmt.Printf("%-15s %12s %9s %8s %10s\n", "Category", "NotAccepted", "WithIDE", "WithPR", "Manually")
		for _, res := range eval.SimulateUserStudy(items, 7, seed) {
			fmt.Printf("%-15s %12d %9d %8d %10d\n",
				res.Category, res.NotAccepted, res.WithIDE, res.WithPR, res.Manually)
		}
		fmt.Println()
	}

	if !skipNeural {
		banner("Table %s: GGNN and Great vs Namer (%s)", neuralNo, lang)
		nopts := eval.DefaultNeuralOptions()
		if quick {
			nopts.TrainSamples = 250
			nopts.TestSamples = 80
			nopts.Epochs = 2
		}
		namer := rows[0]
		start := time.Now()
		results := run.NeuralComparison(nopts, namer.Reports)
		fmt.Printf("(trained %d samples × %d epochs in %v)\n",
			nopts.TrainSamples, nopts.Epochs, time.Since(start).Round(time.Millisecond))
		fmt.Printf("%-6s %9s %9s %9s | %8s %9s %8s %6s %10s\n",
			"System", "syn-cls", "syn-loc", "syn-rep", "Reports", "Semantic", "Quality", "FP", "Precision")
		for _, res := range results {
			fmt.Printf("%-6s %8.0f%% %8.0f%% %8.0f%% | %8d %9d %8d %6d %9.0f%%\n",
				res.System, 100*res.Synthetic.Classification, 100*res.Synthetic.Localization,
				100*res.Synthetic.Repair, res.Row.Reports, res.Row.Semantic,
				res.Row.Quality, res.Row.FalsePos, 100*res.Row.Precision())
		}
		fmt.Printf("%-6s %9s %9s %9s | %8d %9d %8d %6d %9.0f%%\n",
			"Namer", "-", "-", "-", namer.Reports, namer.Semantic,
			namer.Quality, namer.FalsePos, 100*namer.Precision())
		fmt.Println()
	}
}

func banner(format string, args ...any) {
	s := fmt.Sprintf(format, args...)
	fmt.Println(s)
	fmt.Println(strings.Repeat("-", len(s)))
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
