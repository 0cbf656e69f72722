package eval

import (
	"fmt"
	"sort"
	"strings"

	"namer/internal/core"
	"namer/internal/corpus"
	"namer/internal/features"
	"namer/internal/pattern"
)

// PrecisionRow is one row of Table 2 (Python) or Table 5 (Java).
type PrecisionRow struct {
	Name     string
	Reports  int
	Semantic int
	Quality  int
	FalsePos int
}

// Precision returns (semantic + quality) / reports.
func (r PrecisionRow) Precision() float64 {
	if r.Reports == 0 {
		return 0
	}
	return float64(r.Semantic+r.Quality) / float64(r.Reports)
}

// PrecisionTable reproduces Table 2 / Table 5: Namer plus the three
// ablations ("C" = defect classifier, "A" = static analyses), each
// inspected on a random sample of violations.
func (r *Run) PrecisionTable() []PrecisionRow {
	var rows []PrecisionRow

	// Namer and w/o C share the analysis-enabled system.
	test := r.TrainClassifier()
	rows = append(rows, r.inspect("Namer", test, true))
	rows = append(rows, r.inspect("w/o C", test, false))

	// w/o A and w/o C&A: rebuild without the static analyses (patterns are
	// re-mined on undecorated paths, as in the paper).
	cfgNoA := r.Opts.System
	cfgNoA.UseAnalysis = false
	sysNoA, _, statsNoA, labeledNoA := buildSystem(r.Corpus, cfgNoA)
	runNoA := &Run{Opts: r.Opts, Corpus: r.Corpus, Sys: sysNoA, Violations: labeledNoA, Stats: statsNoA}
	testNoA := runNoA.TrainClassifier()
	rows = append(rows, runNoA.inspect("w/o A", testNoA, true))
	rows = append(rows, runNoA.inspect("w/o C & A", testNoA, false))
	return rows
}

// inspect simulates the manual inspection of the sampled violations:
// with the classifier, only violations it reports are inspected; without,
// every sampled violation is reported.
func (r *Run) inspect(name string, sample []*Labeled, useClassifier bool) PrecisionRow {
	row := PrecisionRow{Name: name}
	for _, l := range sample {
		if useClassifier && !r.Sys.ClassifyIn(r.Stats, l.V) {
			continue
		}
		row.Reports++
		switch l.Severity {
		case corpus.SemanticDefect:
			row.Semantic++
		case corpus.CodeQuality:
			row.Quality++
		default:
			row.FalsePos++
		}
	}
	return row
}

// ExampleReport is one row of Table 3 / Table 6.
type ExampleReport struct {
	Severity  corpus.Severity
	Category  string
	Statement string
	Original  string
	Suggested string
}

// ExampleReports reproduces Tables 3 and 6: representative reports per
// severity (semantic defects, code quality issues, false positives),
// up to perSeverity each, drawn from the classifier-approved reports.
func (r *Run) ExampleReports(perSeverity int) []ExampleReport {
	if !r.Sys.HasClassifier() {
		r.TrainClassifier()
	}
	var out []ExampleReport
	counts := map[corpus.Severity]int{}
	seen := map[string]bool{}
	for _, l := range r.Violations {
		if !r.Sys.ClassifyIn(r.Stats, l.V) {
			continue
		}
		if counts[l.Severity] >= perSeverity {
			continue
		}
		key := l.Category + "|" + l.V.Detail.Original + "|" + l.V.Detail.Suggested
		if seen[key] {
			continue
		}
		seen[key] = true
		counts[l.Severity]++
		out = append(out, ExampleReport{
			Severity:  l.Severity,
			Category:  l.Category,
			Statement: l.V.Stmt.SourceLine,
			Original:  l.V.Detail.Original,
			Suggested: l.V.Detail.Suggested,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Severity > out[j].Severity })
	return out
}

// BreakdownRow is one column of Table 4: inspection outcomes for reports
// of one pattern type, with the code-quality category breakdown.
type BreakdownRow struct {
	PatternType pattern.Type
	Semantic    int
	Quality     int
	FalsePos    int
	// Categories counts code-quality issues by category (confusing,
	// indescriptive, inconsistent, minor, typo).
	Categories map[string]int
}

// PatternBreakdown reproduces Table 4 (and the matching §5.3 paragraph):
// up to perType classifier-approved reports per pattern type, judged
// against the ground truth.
func (r *Run) PatternBreakdown(perType int) []BreakdownRow {
	if !r.Sys.HasClassifier() {
		r.TrainClassifier()
	}
	rows := []BreakdownRow{
		{PatternType: pattern.Consistency, Categories: map[string]int{}},
		{PatternType: pattern.ConfusingWord, Categories: map[string]int{}},
	}
	counts := [2]int{}
	for _, l := range r.Violations {
		idx := 0
		if l.V.Pattern.Type == pattern.ConfusingWord {
			idx = 1
		}
		if counts[idx] >= perType {
			continue
		}
		if !r.Sys.ClassifyIn(r.Stats, l.V) {
			continue
		}
		counts[idx]++
		switch l.Severity {
		case corpus.SemanticDefect:
			rows[idx].Semantic++
		case corpus.CodeQuality:
			rows[idx].Quality++
			rows[idx].Categories[l.Category]++
		default:
			rows[idx].FalsePos++
		}
	}
	return rows
}

// TypeShare reproduces the "distribution of naming issues per pattern
// type" statistics: the share of reports from each pattern type (they can
// overlap when a statement is flagged by both).
type TypeShare struct {
	Consistency float64
	Confusing   float64
	Both        float64
}

// ReportTypeShare computes the per-pattern-type report shares over the
// classifier-approved reports.
func (r *Run) ReportTypeShare() TypeShare {
	if !r.Sys.HasClassifier() {
		r.TrainClassifier()
	}
	type key struct {
		stmt *core.ProcStmt
	}
	byStmt := map[key][2]bool{}
	for _, l := range r.Violations {
		if !r.Sys.ClassifyIn(r.Stats, l.V) {
			continue
		}
		k := key{l.V.Stmt}
		cur := byStmt[k]
		if l.V.Pattern.Type == pattern.Consistency {
			cur[0] = true
		} else {
			cur[1] = true
		}
		byStmt[k] = cur
	}
	total := len(byStmt)
	if total == 0 {
		return TypeShare{}
	}
	var cons, conf, both int
	for _, c := range byStmt {
		if c[0] {
			cons++
		}
		if c[1] {
			conf++
		}
		if c[0] && c[1] {
			both++
		}
	}
	return TypeShare{
		Consistency: float64(cons) / float64(total),
		Confusing:   float64(conf) / float64(total),
		Both:        float64(both) / float64(total),
	}
}

// WeightRow is one row of Table 9: a feature family's learned weight at
// each statistical level.
type WeightRow struct {
	Feature string
	File    float64
	Repo    float64
	Dataset float64 // NaN-free: 0 when the family has no dataset level
	HasData bool
}

// FeatureWeightTable reproduces Table 9 from the trained classifier's
// weights mapped back to the 17 features: the identical-statement,
// satisfaction-count, and violation-count families across levels.
func (r *Run) FeatureWeightTable() []WeightRow {
	if !r.Sys.HasClassifier() {
		r.TrainClassifier()
	}
	w := r.Sys.FeatureWeights()
	if len(w) != features.Count {
		return nil
	}
	return []WeightRow{
		{Feature: "Identical statement", File: w[1], Repo: w[2]},
		{Feature: "Satisfaction rate", File: w[3], Repo: w[4], Dataset: w[5], HasData: true},
		{Feature: "Violation count", File: w[6], Repo: w[7], Dataset: w[8], HasData: true},
		{Feature: "Satisfaction count", File: w[9], Repo: w[10], Dataset: w[11], HasData: true},
	}
}

// FormatPrecisionTable renders Table 2/5 as text.
func FormatPrecisionTable(rows []PrecisionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %9s %8s %6s %10s\n",
		"Baseline", "Report", "Semantic", "Quality", "FP", "Precision")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %9d %8d %6d %9.0f%%\n",
			r.Name, r.Reports, r.Semantic, r.Quality, r.FalsePos, 100*r.Precision())
	}
	return b.String()
}

// FormatBreakdown renders Table 4 as text.
func FormatBreakdown(rows []BreakdownRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %14s\n", "Inspection outcome", "Consistency", "Confusing word")
	get := func(i int, f func(BreakdownRow) int) int { return f(rows[i]) }
	fmt.Fprintf(&b, "%-22s %12d %14d\n", "Semantic defect",
		get(0, func(r BreakdownRow) int { return r.Semantic }),
		get(1, func(r BreakdownRow) int { return r.Semantic }))
	fmt.Fprintf(&b, "%-22s %12d %14d\n", "Code quality issue",
		get(0, func(r BreakdownRow) int { return r.Quality }),
		get(1, func(r BreakdownRow) int { return r.Quality }))
	fmt.Fprintf(&b, "%-22s %12d %14d\n", "False positive",
		get(0, func(r BreakdownRow) int { return r.FalsePos }),
		get(1, func(r BreakdownRow) int { return r.FalsePos }))
	cats := map[string]bool{}
	for _, r := range rows {
		for c := range r.Categories {
			cats[c] = true
		}
	}
	var names []string
	for c := range cats {
		names = append(names, c)
	}
	sort.Strings(names)
	b.WriteString("Breakdown of code quality issues\n")
	for _, c := range names {
		fmt.Fprintf(&b, "%-22s %12d %14d\n", c, rows[0].Categories[c], rows[1].Categories[c])
	}
	return b.String()
}
