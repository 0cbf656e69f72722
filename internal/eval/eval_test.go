package eval

import (
	"strings"
	"testing"

	"namer/internal/ast"
)

// testOptions shrinks the corpus for fast tests.
func testOptions(lang ast.Language) Options {
	opts := DefaultOptions(lang)
	opts.Corpus.Repos = 18
	opts.Corpus.FilesPerRepo = 4
	opts.System.Mining.MinPatternCount = opts.Corpus.Repos * opts.Corpus.FilesPerRepo / 3
	opts.TrainSize = 80
	opts.TestSize = 200
	return opts
}

func TestPrecisionTableShape(t *testing.T) {
	run := NewRun(testOptions(ast.Python))
	rows := run.PrecisionTable()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byName := map[string]PrecisionRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Reports == 0 {
			t.Errorf("%s: zero reports", r.Name)
		}
		t.Logf("%-10s reports=%3d semantic=%2d quality=%3d fp=%3d precision=%.2f",
			r.Name, r.Reports, r.Semantic, r.Quality, r.FalsePos, r.Precision())
	}
	// Paper shape: the classifier improves precision over raw matching.
	if byName["Namer"].Precision() <= byName["w/o C"].Precision() {
		t.Errorf("Namer precision %.2f should beat w/o C %.2f",
			byName["Namer"].Precision(), byName["w/o C"].Precision())
	}
	// Paper shape: without the analyses, precision drops too.
	if byName["Namer"].Precision() <= byName["w/o C & A"].Precision() {
		t.Errorf("Namer precision %.2f should beat w/o C&A %.2f",
			byName["Namer"].Precision(), byName["w/o C & A"].Precision())
	}
	// Without the classifier every sampled violation is reported.
	if byName["w/o C"].Reports < byName["Namer"].Reports {
		t.Error("w/o C must report at least as much as Namer")
	}
	// Paper shape: the analyses unlock issues — w/o A finds fewer true
	// positives than Namer.
	namerTP := byName["Namer"].Semantic + byName["Namer"].Quality
	noATP := byName["w/o A"].Semantic + byName["w/o A"].Quality
	if noATP >= namerTP {
		t.Errorf("w/o A should find fewer issues: %d vs %d", noATP, namerTP)
	}
}

func TestExampleReports(t *testing.T) {
	run := NewRun(testOptions(ast.Python))
	examples := run.ExampleReports(3)
	if len(examples) == 0 {
		t.Fatal("no example reports")
	}
	for _, ex := range examples {
		if ex.Original == "" || ex.Suggested == "" {
			t.Errorf("incomplete example: %+v", ex)
		}
	}
}

func TestPatternBreakdown(t *testing.T) {
	run := NewRun(testOptions(ast.Python))
	rows := run.PatternBreakdown(100)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	totalQuality := rows[0].Quality + rows[1].Quality
	if totalQuality == 0 {
		t.Error("no code quality issues in the breakdown")
	}
	text := FormatBreakdown(rows)
	if !strings.Contains(text, "Consistency") || !strings.Contains(text, "Semantic defect") {
		t.Errorf("breakdown format:\n%s", text)
	}
}

func TestReportTypeShare(t *testing.T) {
	run := NewRun(testOptions(ast.Python))
	share := run.ReportTypeShare()
	if share.Consistency+share.Confusing <= 0 {
		t.Fatalf("degenerate shares: %+v", share)
	}
	// Shares can overlap, so the sum is >= 1 only when Both > 0; each must
	// be a valid proportion.
	for _, v := range []float64{share.Consistency, share.Confusing, share.Both} {
		if v < 0 || v > 1 {
			t.Errorf("share out of range: %+v", share)
		}
	}
}

func TestFeatureWeightTable(t *testing.T) {
	run := NewRun(testOptions(ast.Python))
	rows := run.FeatureWeightTable()
	if len(rows) != 4 {
		t.Fatalf("weight rows = %d, want 4", len(rows))
	}
	nonZero := 0
	for _, r := range rows {
		if r.File != 0 || r.Repo != 0 || r.Dataset != 0 {
			nonZero++
		}
		t.Logf("%-22s file=%+.3f repo=%+.3f dataset=%+.3f", r.Feature, r.File, r.Repo, r.Dataset)
	}
	if nonZero == 0 {
		t.Error("all weights are zero")
	}
}

func TestCrossValidation(t *testing.T) {
	run := NewRun(testOptions(ast.Python))
	best, results := run.CrossValidation(5)
	if len(results) != 3 {
		t.Fatalf("results = %d models", len(results))
	}
	if _, ok := results[best]; !ok {
		t.Errorf("best model %q not in results", best)
	}
	for name, m := range results {
		t.Logf("%s: acc=%.2f f1=%.2f", name, m.Accuracy, m.F1)
		if m.Accuracy < 0.5 {
			t.Errorf("%s accuracy %.2f below chance", name, m.Accuracy)
		}
	}
}

func TestMiningStats(t *testing.T) {
	run := NewRun(testOptions(ast.Python))
	st := run.Mining()
	if st.Patterns == 0 || st.ViolatingStatements == 0 {
		t.Errorf("degenerate mining stats: %+v", st)
	}
	if st.ViolatingFiles > st.TotalFiles || st.ViolatingRepos > st.TotalRepos {
		t.Errorf("impossible coverage: %+v", st)
	}
	if st.ConfusingPairs == 0 {
		t.Error("no confusing pairs")
	}
}

func TestUserStudy(t *testing.T) {
	run := NewRun(testOptions(ast.Python))
	items := run.UserStudyItems()
	if len(items) == 0 {
		t.Fatal("no study items")
	}
	results := SimulateUserStudy(items, 7, 42)
	if len(results) != len(items) {
		t.Fatalf("results = %d, items = %d", len(results), len(items))
	}
	for _, r := range results {
		total := r.NotAccepted + r.WithIDE + r.WithPR + r.Manually
		if total != 7 {
			t.Errorf("%s: %d responses, want 7", r.Category, total)
		}
	}
	// Deterministic.
	again := SimulateUserStudy(items, 7, 42)
	for i := range results {
		if results[i] != again[i] {
			t.Error("user study not deterministic")
		}
	}
	// §5.4 shape: acceptance dominates rejection overall.
	var rejected, accepted int
	for _, r := range results {
		rejected += r.NotAccepted
		accepted += r.WithIDE + r.WithPR + r.Manually
	}
	if accepted <= rejected {
		t.Errorf("acceptance (%d) should dominate rejection (%d)", accepted, rejected)
	}
}

func TestNeuralComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("neural comparison is slow")
	}
	opts := testOptions(ast.Python)
	opts.Corpus.Repos = 10
	run := NewRun(opts)
	table := run.PrecisionTable()
	namer := table[0]
	nopts := DefaultNeuralOptions()
	nopts.TrainSamples = 250
	nopts.TestSamples = 80
	nopts.Dim = 16
	nopts.Epochs = 3
	results := run.NeuralComparison(nopts, 100) // enough reports to be meaningful
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2 (GGNN, Great)", len(results))
	}
	_ = namer
	// Namer's true-issue yield over all classifier-approved reports (the
	// sampled table row is too small at this corpus scale).
	namerTP := 0
	for _, l := range run.Violations {
		if l.IsIssue() && run.Sys.ClassifyIn(run.Stats, l.V) {
			namerTP++
		}
	}
	for i, res := range results {
		t.Logf("%s: synthetic cls=%.2f loc=%.2f rep=%.2f | real: %d reports, precision %.2f",
			res.System, res.Synthetic.Classification, res.Synthetic.Localization,
			res.Synthetic.Repair, res.Row.Reports, res.Row.Precision())
		// §5.6 shape: decent synthetic accuracy (GGNN trains well even at
		// this tiny scale; the 1-layer Great underfits but must stay near
		// or above chance)...
		minCls := 0.6
		if i == 1 {
			minCls = 0.35
		}
		if res.Synthetic.Classification < minCls {
			t.Errorf("%s synthetic classification %.2f too low", res.System, res.Synthetic.Classification)
		}
		// ...but they recover fewer real naming issues than Namer at far
		// lower precision. (GGNN legitimately catches the swapped-argument
		// subset — genuine variable misuses — so the TP gap narrows on
		// tiny corpora; at full scale it is ≥3×, see EXPERIMENTS.md.)
		baseTP := res.Row.Semantic + res.Row.Quality
		if baseTP >= namerTP {
			t.Errorf("%s finds %d true issues, Namer finds %d — expected fewer",
				res.System, baseTP, namerTP)
		}
		if res.Row.Precision() >= 0.5 {
			t.Errorf("%s real precision %.2f suspiciously high", res.System, res.Row.Precision())
		}
	}
}

func TestJavaRunBuilds(t *testing.T) {
	opts := testOptions(ast.Java)
	opts.Corpus.Repos = 10
	run := NewRun(opts)
	if len(run.Violations) == 0 {
		t.Fatal("no violations on the Java corpus")
	}
	rows := run.PrecisionTable()
	byName := map[string]PrecisionRow{}
	for _, r := range rows {
		byName[r.Name] = r
		t.Logf("%-10s reports=%3d precision=%.2f", r.Name, r.Reports, r.Precision())
	}
	if byName["Namer"].Precision() <= byName["w/o C"].Precision() {
		t.Errorf("Java: Namer precision %.2f should beat w/o C %.2f",
			byName["Namer"].Precision(), byName["w/o C"].Precision())
	}
}
