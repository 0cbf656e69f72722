package core

import (
	"testing"

	"namer/internal/ast"
	"namer/internal/corpus"
	"namer/internal/pattern"
)

// buildSystem runs the full pipeline over a generated corpus: mine, then
// Scan the mined statements.
func buildSystem(t *testing.T, lang ast.Language, cfg Config, ccfg corpus.Config) (*System, *corpus.Corpus, *ScanResult) {
	t.Helper()
	c := corpus.Generate(ccfg)
	sys := NewSystem(cfg)
	sys.MinePairs(c.Commits)
	var files []*InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &InputFile{Repo: r.Name, Path: f.Path, Source: f.Source, Root: f.Root})
		}
	}
	sys.ProcessFiles(files)
	sys.MinePatterns()
	return sys, c, sys.Scan()
}

func smallCorpusConfig(lang ast.Language) corpus.Config {
	ccfg := corpus.DefaultConfig(lang)
	ccfg.Repos = 20
	ccfg.FilesPerRepo = 4
	ccfg.IssueRate = 0.06
	return ccfg
}

func smallSystemConfig(lang ast.Language) Config {
	cfg := DefaultConfig(lang)
	cfg.Mining.MinPatternCount = 25
	return cfg
}

func TestEndToEndPython(t *testing.T) {
	sys, c, res := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	violations := res.Violations
	if len(sys.Patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	if len(violations) == 0 {
		t.Fatal("no violations found")
	}
	// Both pattern types must be represented.
	types := map[pattern.Type]int{}
	for _, p := range sys.Patterns {
		types[p.Type]++
	}
	if types[pattern.Consistency] == 0 || types[pattern.ConfusingWord] == 0 {
		t.Errorf("pattern types mined: %v", types)
	}
	// A decent share of injected issues must be caught.
	caught := map[*corpus.Issue]bool{}
	tp := 0
	for _, v := range violations {
		if is := c.IssueAt(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original); is != nil {
			if !caught[is] {
				caught[is] = true
				tp++
			}
		}
	}
	if len(c.Issues) == 0 {
		t.Fatal("corpus has no issues")
	}
	recall := float64(tp) / float64(len(c.Issues))
	t.Logf("python: %d patterns, %d violations, %d/%d issues caught (recall %.2f)",
		len(sys.Patterns), len(violations), tp, len(c.Issues), recall)
	if recall < 0.4 {
		t.Errorf("recall = %.2f, want >= 0.4", recall)
	}
	// The assertTrue defect specifically must be caught with fix Equal.
	foundAssert := false
	for _, v := range violations {
		if v.Detail.Original == "True" && v.Detail.Suggested == "Equal" {
			foundAssert = true
		}
	}
	hasAssertIssue := false
	for _, is := range c.Issues {
		if is.Original == "True" {
			hasAssertIssue = true
		}
	}
	if hasAssertIssue && !foundAssert {
		t.Error("assertTrue(x, NUM) defect not detected")
	}
}

func TestEndToEndJava(t *testing.T) {
	sys, c, res := buildSystem(t, ast.Java, smallSystemConfig(ast.Java), smallCorpusConfig(ast.Java))
	violations := res.Violations
	if len(sys.Patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	if len(violations) == 0 {
		t.Fatal("no violations found")
	}
	tp := 0
	caught := map[*corpus.Issue]bool{}
	for _, v := range violations {
		if is := c.IssueAt(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original); is != nil && !caught[is] {
			caught[is] = true
			tp++
		}
	}
	recall := float64(tp) / float64(len(c.Issues))
	t.Logf("java: %d patterns, %d violations, %d/%d issues caught (recall %.2f)",
		len(sys.Patterns), len(violations), tp, len(c.Issues), recall)
	if recall < 0.35 {
		t.Errorf("recall = %.2f, want >= 0.35", recall)
	}
}

func TestClassifierImprovesPrecision(t *testing.T) {
	sys, c, res := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	violations := res.Violations
	if len(violations) < 40 {
		t.Skipf("only %d violations", len(violations))
	}
	// Label all violations with ground truth.
	labels := make([]int, len(violations))
	truePos := 0
	for i, v := range violations {
		sev, _ := c.Judge(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original)
		if sev != corpus.NotIssue {
			labels[i] = 1
			truePos++
		}
	}
	if truePos == 0 || truePos == len(violations) {
		t.Skipf("degenerate labels: %d/%d", truePos, len(violations))
	}
	basePrecision := float64(truePos) / float64(len(violations))

	// Train on a balanced subset (the paper's 120 labeled violations).
	var trainVs []*Violation
	var trainY []int
	pos, neg := 0, 0
	for i, v := range violations {
		if labels[i] == 1 && pos < 60 {
			trainVs = append(trainVs, v)
			trainY = append(trainY, 1)
			pos++
		}
		if labels[i] == 0 && neg < 60 {
			trainVs = append(trainVs, v)
			trainY = append(trainY, 0)
			neg++
		}
	}
	sys.TrainClassifier(res.Stats, trainVs, trainY)
	if !sys.HasClassifier() {
		t.Fatal("classifier not trained")
	}

	reported, reportedTP := 0, 0
	for i, v := range violations {
		if sys.ClassifyIn(res.Stats, v) {
			reported++
			if labels[i] == 1 {
				reportedTP++
			}
		}
	}
	if reported == 0 {
		t.Fatal("classifier reports nothing")
	}
	precision := float64(reportedTP) / float64(reported)
	t.Logf("precision: %.2f -> %.2f (reports %d -> %d)",
		basePrecision, precision, len(violations), reported)
	if precision <= basePrecision {
		t.Errorf("classifier did not improve precision: %.2f vs %.2f", precision, basePrecision)
	}
	// Feature weights exposed after training.
	if w := sys.FeatureWeights(); len(w) != 17 {
		t.Errorf("feature weights dim = %d, want 17", len(w))
	}
}

func TestAblationNoAnalysis(t *testing.T) {
	cfgA := smallSystemConfig(ast.Python)
	cfgNoA := smallSystemConfig(ast.Python)
	cfgNoA.UseAnalysis = false
	ccfg := smallCorpusConfig(ast.Python)

	_, cA, resA := buildSystem(t, ast.Python, cfgA, ccfg)
	_, cNoA, resNoA := buildSystem(t, ast.Python, cfgNoA, ccfg)

	caught := func(c *corpus.Corpus, vs []*Violation) int {
		seen := map[*corpus.Issue]bool{}
		n := 0
		for _, v := range vs {
			if is := c.IssueAt(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original); is != nil && !seen[is] {
				seen[is] = true
				n++
			}
		}
		return n
	}
	tpA, tpNoA := caught(cA, resA.Violations), caught(cNoA, resNoA.Violations)
	t.Logf("with analysis: %d issues; without: %d issues", tpA, tpNoA)
	// The analysis unlocks origin-dependent patterns (TestCase receivers,
	// numpy aliases, typed Java params): it must find strictly more.
	if tpA <= tpNoA {
		t.Errorf("analysis should find more issues: %d vs %d", tpA, tpNoA)
	}
}

func TestViolationReport(t *testing.T) {
	_, _, res := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	violations := res.Violations
	if len(violations) == 0 {
		t.Fatal("no violations")
	}
	r := violations[0].Report()
	if r == "" || len(r) < 20 {
		t.Errorf("report too short: %q", r)
	}
}

func TestCrossValidateModels(t *testing.T) {
	sys, c, res := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	violations := res.Violations
	if len(violations) < 40 {
		t.Skip("not enough violations")
	}
	labels := make([]int, len(violations))
	for i, v := range violations {
		sev, _ := c.Judge(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original)
		if sev != corpus.NotIssue {
			labels[i] = 1
		}
	}
	for _, model := range []string{"svm", "logreg", "lda"} {
		m := sys.CrossValidate(res.Stats, violations, labels, model, 5)
		if m.Accuracy <= 0.4 {
			t.Errorf("%s: accuracy %.2f suspiciously low", model, m.Accuracy)
		}
		t.Logf("%s: acc=%.2f prec=%.2f rec=%.2f f1=%.2f", model, m.Accuracy, m.Precision, m.Recall, m.F1)
	}
}

func TestConfigAccessor(t *testing.T) {
	cfg := DefaultConfig(ast.Java)
	sys := NewSystem(cfg)
	if got := sys.Config(); got.Lang != ast.Java || !got.UseAnalysis {
		t.Errorf("Config() = %+v", got)
	}
}
