// Package eval reproduces the experimental evaluation of §5: the
// precision/ablation tables for Python and Java (Tables 2 and 5), example
// reports (Tables 3 and 6), the per-pattern-type breakdown (Table 4), the
// simulated user study (Tables 7 and 8), classifier feature weights
// (Table 9), the comparison against the GGNN and Great baselines (Tables
// 10 and 11), and the mining/cross-validation statistics quoted in §5.2
// and §5.3. The generated corpus's ground-truth labels play the role of
// the paper's manual inspection (see DESIGN.md).
package eval

import (
	"math/rand"

	"namer/internal/ast"
	"namer/internal/core"
	"namer/internal/corpus"
	"namer/internal/features"
	"namer/internal/ml"
)

// Options configures one evaluation run.
type Options struct {
	Lang      ast.Language
	Corpus    corpus.Config
	System    core.Config
	TrainSize int // labeled violations for the classifier (paper: 120)
	TestSize  int // randomly selected violations to inspect (paper: 300)
	Seed      int64
}

// DefaultOptions mirrors §5.1 at generated-corpus scale. The anomaly rate
// is set high enough that raw pattern matching has substantial
// false-positive pressure, which is what the defect classifier exists to
// prune.
func DefaultOptions(lang ast.Language) Options {
	ccfg := corpus.DefaultConfig(lang)
	ccfg.Repos = 60
	ccfg.FilesPerRepo = 6
	ccfg.IssueRate = 0.05
	ccfg.AnomalyRate = 0.15
	scfg := core.DefaultConfig(lang)
	// Pattern support scales with corpus size: a mined idiom typically
	// occurs once or twice per file exhibiting it.
	scfg.Mining.MinPatternCount = ccfg.Repos * ccfg.FilesPerRepo / 3
	return Options{
		Lang:      lang,
		Corpus:    ccfg,
		System:    scfg,
		TrainSize: 120,
		TestSize:  300,
		Seed:      7,
	}
}

// Labeled couples a violation with its ground-truth inspection outcome.
type Labeled struct {
	V        *core.Violation
	Severity corpus.Severity
	Category string
}

// IsIssue reports whether the violation is a true naming issue.
func (l *Labeled) IsIssue() bool { return l.Severity != corpus.NotIssue }

// Run is a fully built evaluation environment: corpus, system, and the
// labeled violation universe.
type Run struct {
	Opts       Options
	Corpus     *corpus.Corpus
	Sys        *core.System
	Violations []*Labeled
	// Stats is the scan's statistics index the violations are scored
	// against, for training and classification.
	Stats *features.Index
	Files []*core.InputFile
}

// NewRun generates the corpus, builds the system (mining, scanning), and
// labels every violation with the ground truth.
func NewRun(opts Options) *Run {
	c := corpus.Generate(opts.Corpus)
	sys, files, stats, labeled := buildSystem(c, opts.System)
	return &Run{Opts: opts, Corpus: c, Sys: sys, Violations: labeled, Stats: stats, Files: files}
}

// buildSystem mines the corpus and then scans the mined statements
// (Scan), sparing a second front-end pass over the same files.
func buildSystem(c *corpus.Corpus, cfg core.Config) (*core.System, []*core.InputFile, *features.Index, []*Labeled) {
	sys := core.NewSystem(cfg)
	sys.MinePairs(c.Commits)
	var files []*core.InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &core.InputFile{
				Repo: r.Name, Path: f.Path, Source: f.Source, Root: f.Root,
			})
		}
	}
	sys.ProcessFiles(files)
	sys.MinePatterns()
	res := sys.Scan()
	var labeled []*Labeled
	for _, v := range res.Violations {
		sev, cat := c.Judge(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original)
		labeled = append(labeled, &Labeled{V: v, Severity: sev, Category: cat})
	}
	return sys, files, res.Stats, labeled
}

// splitTrainTest picks a balanced training set of up to n labeled
// violations (half true, half false, per §5.1) and returns it along with
// a random sample of testSize violations from the remainder.
func splitTrainTest(labeled []*Labeled, n, testSize int, seed int64) (train, test []*Labeled) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(labeled))
	// Never consume more than half the pool for training, so a test
	// sample always remains.
	if n > len(labeled)/2 {
		n = len(labeled) / 2
	}
	half := n / 2
	pos, neg := 0, 0
	inTrain := make([]bool, len(labeled))
	for _, i := range perm {
		l := labeled[i]
		if l.IsIssue() && pos < half {
			train = append(train, l)
			inTrain[i] = true
			pos++
		} else if !l.IsIssue() && neg < half {
			train = append(train, l)
			inTrain[i] = true
			neg++
		}
	}
	for _, i := range perm {
		if inTrain[i] {
			continue
		}
		test = append(test, labeled[i])
		if len(test) >= testSize {
			break
		}
	}
	return train, test
}

// TrainClassifier trains the system's classifier on a balanced labeled
// subset and returns the held-out test sample.
func (r *Run) TrainClassifier() (test []*Labeled) {
	train, test := splitTrainTest(r.Violations, r.Opts.TrainSize, r.Opts.TestSize, r.Opts.Seed)
	vs := make([]*core.Violation, len(train))
	ys := make([]int, len(train))
	for i, l := range train {
		vs[i] = l.V
		if l.IsIssue() {
			ys[i] = 1
		}
	}
	r.Sys.TrainClassifier(r.Stats, vs, ys)
	return test
}

// CrossValidation reproduces the §5.1/§5.2 model-selection protocol on
// the labeled training pool, returning metrics per model and the selected
// model name.
func (r *Run) CrossValidation(repeats int) (best string, results map[string]ml.Metrics) {
	train, _ := splitTrainTest(r.Violations, r.Opts.TrainSize, 0, r.Opts.Seed)
	vs := make([]*core.Violation, len(train))
	ys := make([]int, len(train))
	for i, l := range train {
		vs[i] = l.V
		if l.IsIssue() {
			ys[i] = 1
		}
	}
	results = make(map[string]ml.Metrics)
	bestF1 := -1.0
	for _, model := range []string{"svm", "logreg", "lda"} {
		m := r.Sys.CrossValidate(r.Stats, vs, ys, model, repeats)
		results[model] = m
		if m.F1 > bestF1 || (m.F1 == bestF1 && model < best) {
			best, bestF1 = model, m.F1
		}
	}
	return best, results
}

// MiningStats reproduces the "statistics on pattern mining" paragraphs of
// §5.2/§5.3.
type MiningStats struct {
	Patterns            int
	ViolatingStatements int
	ViolatingFiles      int
	TotalFiles          int
	ViolatingRepos      int
	TotalRepos          int
	ConfusingPairs      int
}

// Mining returns the corpus-level mining statistics.
func (r *Run) Mining() MiningStats {
	files := map[string]bool{}
	repos := map[string]bool{}
	stmts := map[*core.ProcStmt]bool{}
	for _, l := range r.Violations {
		files[l.V.Stmt.Path] = true
		repos[l.V.Stmt.Repo] = true
		stmts[l.V.Stmt] = true
	}
	return MiningStats{
		Patterns:            len(r.Sys.Patterns),
		ViolatingStatements: len(stmts),
		ViolatingFiles:      len(files),
		TotalFiles:          r.Corpus.TotalFiles(),
		ViolatingRepos:      len(repos),
		TotalRepos:          len(r.Corpus.Repos),
		ConfusingPairs:      r.Sys.Pairs.Len(),
	}
}
