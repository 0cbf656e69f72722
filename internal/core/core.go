// Package core assembles the full Namer system of the paper: per-file
// parsing and static analysis (§4.1), the AST+ transformation and name
// path extraction (§3.1), name pattern mining over the corpus (§3.3),
// violation detection (§3.2), feature extraction (§4.2, Table 1), and the
// defect classifier that prunes false positives.
//
// Every entry point (ProcessFiles, Scan, ScanFiles, DiffFiles,
// AnalyzeOverlay) runs the same per-file front end and the same
// per-statement matcher, and every scan returns its own statistics for
// ClassifyIn. The binaries detect with ScanFiles.
//
// The two ablations of Tables 2 and 5 are configuration switches:
// Config.UseAnalysis ("w/o A" when false) and whether a classifier is
// trained ("w/o C" when not).
package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"namer/internal/ast"
	"namer/internal/astplus"
	"namer/internal/confusion"
	"namer/internal/features"
	"namer/internal/mining"
	"namer/internal/ml"
	"namer/internal/obs"
	"namer/internal/parallel"
	"namer/internal/pattern"
	"namer/internal/pointsto"
)

// Config configures a Namer instance.
type Config struct {
	Lang ast.Language
	// UseAnalysis enables the points-to/dataflow origin decoration; false
	// is the "w/o A" ablation.
	UseAnalysis bool
	// Mining hyperparameters (§5.1).
	Mining mining.Config
	// PointsTo options (k=5, fallback at 8 contexts/method).
	PointsTo pointsto.Options
	// MinPairCount prunes confusing word pairs seen fewer times.
	MinPairCount int
	// Seed drives classifier training.
	Seed int64
	// Parallelism is the worker count for the corpus-scale stages: the
	// per-file front end (ProcessFiles, ScanFiles, DiffFiles), the match
	// stage (Scan's shards, ScanFiles, DiffFiles), and mining. 0 uses
	// every CPU, 1 forces the serial reference path. Outputs are
	// byte-identical at any setting. Mining.Parallelism, when zero,
	// inherits this value. A server that runs one scan per request sets
	// 1 and gets its concurrency from the requests.
	Parallelism int
	// Progress, when non-nil, is called after each file finishes the
	// front end (ProcessFiles, ScanFiles, DiffFiles) with (files done,
	// files total, cumulative statements). It runs on worker goroutines
	// and must be safe for concurrent use (obs.Progress.Update is); it
	// must not mutate the system.
	Progress func(done, total, statements int)
}

// DefaultConfig mirrors §5.1 with corpus-scale mining thresholds.
func DefaultConfig(lang ast.Language) Config {
	m := mining.DefaultConfig()
	m.MinPatternCount = 40
	m.MaxCombinationsPerNode = 64
	return Config{
		Lang:         lang,
		UseAnalysis:  true,
		Mining:       m,
		PointsTo:     pointsto.DefaultOptions(),
		MinPairCount: 3,
		Seed:         1,
	}
}

// InputFile is one corpus file handed to the system.
type InputFile struct {
	Repo   string
	Path   string
	Source string
	Root   *ast.Node
}

// ProcStmt is one processed statement: its indexed name paths plus the
// provenance needed for features and reports.
type ProcStmt struct {
	Repo        string
	Path        string
	Line        int
	Fingerprint string
	PS          *pattern.Statement
	SourceLine  string
}

// Violation is one detected name pattern violation, before classification.
type Violation struct {
	Stmt    *ProcStmt
	Pattern *pattern.Pattern
	Detail  pattern.Violation
}

// System is a Namer instance.
type System struct {
	cfg      Config
	Pairs    *confusion.PairSet
	Patterns []*pattern.Pattern
	Stmts    []*ProcStmt
	// MiningStats records the FP-tree shape of each MinePatterns pass
	// (one entry per pattern type), for the perf-tracking benchmarks and
	// the cmd binaries' progress output.
	MiningStats []MiningStat

	classifier *ml.Pipeline
	index      *mining.Index
	cache      FileCache
}

// MiningStat is the FP-tree shape of one mining pass.
type MiningStat struct {
	Type         pattern.Type
	TreeNodes    int
	Transactions int
}

// NewSystem returns an empty system.
func NewSystem(cfg Config) *System {
	return &System{cfg: cfg}
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// MinePairs extracts and prunes confusing word pairs from commit history.
func (s *System) MinePairs(commits []confusion.Commit) {
	ps := confusion.MinePairs(commits)
	if s.cfg.MinPairCount > 1 {
		ps = ps.Prune(s.cfg.MinPairCount)
	}
	s.Pairs = ps
}

// ProcessFiles runs the per-file front end (parsing when a file arrives
// without an AST, analysis, transformation, name path extraction) on a
// fixed pool of Parallelism workers, then appends the statements to
// s.Stmts in input order for mining. A file that fails to parse or
// panics in analysis is returned as an error; the rest are processed.
func (s *System) ProcessFiles(files []*InputFile) []error {
	return s.ProcessFilesCtx(context.Background(), files)
}

// ProcessFilesCtx is ProcessFiles under a tracing context: the whole
// stage is one "process_files" span with a child span per file (path,
// statement count), recorded from whichever worker processed it, and
// the Config.Progress callback fires as files complete.
func (s *System) ProcessFilesCtx(ctx context.Context, files []*InputFile) []error {
	ctx, sp := obs.StartSpan(ctx, "process_files")
	sp.SetAttrInt("files", len(files))
	defer sp.End()
	results := make([][]*ProcStmt, len(files))
	fileErrs := make([]error, len(files))
	s.eachFile(ctx, files, func(fctx context.Context, _ *obs.Span, i int) int {
		_, results[i], _, fileErrs[i] = s.frontEnd(fctx, files[i])
		return len(results[i])
	})
	var errs []error
	for i, stmts := range results {
		if fileErrs[i] != nil {
			errs = append(errs, fileErrs[i])
			continue
		}
		s.Stmts = append(s.Stmts, stmts...)
	}
	return errs
}

// eachFile runs fn for every file on the Config.Parallelism worker pool,
// each call under its own "file" span (path and the statement count fn
// returns), and fires Config.Progress as files complete.
func (s *System) eachFile(ctx context.Context, files []*InputFile, fn func(ctx context.Context, sp *obs.Span, i int) int) {
	var done, stmtCount atomic.Int64
	parallel.ForEach(len(files), parallel.Degree(s.cfg.Parallelism), func(i int) {
		fctx, fsp := obs.StartSpan(ctx, "file")
		fsp.SetAttr("path", files[i].Path)
		n := fn(fctx, fsp, i)
		fsp.SetAttrInt("statements", n)
		fsp.End()
		if s.cfg.Progress != nil {
			s.cfg.Progress(int(done.Add(1)), len(files), int(stmtCount.Add(int64(n))))
		}
	})
}

// frontEnd is the per-file front end every entry point shares: a file
// without an AST is parsed first (under a "parse" span, timed as
// parse), then analyzed with panics contained, so one pathological file
// costs only itself. root is nil exactly when parsing failed; err names
// the file.
func (s *System) frontEnd(ctx context.Context, f *InputFile) (root *ast.Node, stmts []*ProcStmt, parse time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			stmts, err = nil, fmt.Errorf("%s/%s: analysis panic: %v", f.Repo, f.Path, r)
		}
	}()
	if root = f.Root; root == nil {
		start := time.Now()
		_, psp := obs.StartSpan(ctx, "parse")
		root, err = ParseSource(s.cfg.Lang, f.Source)
		psp.End()
		if parse = time.Since(start); err != nil {
			return nil, nil, parse, fmt.Errorf("%s/%s: %v", f.Repo, f.Path, err)
		}
		f = &InputFile{Repo: f.Repo, Path: f.Path, Source: f.Source, Root: root}
	}
	return root, s.ProcessFile(f), parse, nil
}

// ProcessFile runs the front half of the pipeline on one parsed file.
func (s *System) ProcessFile(f *InputFile) []*ProcStmt {
	var origin astplus.OriginFunc
	if s.cfg.UseAnalysis {
		res := pointsto.Analyze(f.Root, s.cfg.Lang, s.cfg.PointsTo)
		origin = res.OriginOf
	}
	lines := strings.Split(f.Source, "\n")
	var out []*ProcStmt
	w := astplus.NewWalker(origin)
	for _, stmt := range ast.Statements(f.Root) {
		paths := w.Paths(stmt, s.cfg.Mining.MaxPathsPerStatement)
		if len(paths) == 0 {
			continue
		}
		srcLine := ""
		if stmt.Line >= 1 && stmt.Line <= len(lines) {
			srcLine = strings.TrimSpace(lines[stmt.Line-1])
		}
		out = append(out, &ProcStmt{
			Repo:        f.Repo,
			Path:        f.Path,
			Line:        stmt.Line,
			Fingerprint: stmt.Root.Fingerprint(),
			PS:          pattern.NewStatement(paths),
			SourceLine:  srcLine,
		})
	}
	return out
}

// MinePatterns mines both pattern types over the processed statements.
func (s *System) MinePatterns() {
	s.MinePatternsCtx(context.Background())
}

// MinePatternsCtx is MinePatterns under a tracing context: one
// "mine_patterns" span wrapping a per-type "mine" span tree whose
// children break out the pass-1 count, FP-tree build, FP-growth, and
// prune stages (see mining.MinePatternsCtx). A caller-set
// Mining.OnTreeBuilt hook still fires after the stats are recorded.
func (s *System) MinePatternsCtx(ctx context.Context) {
	ctx, sp := obs.StartSpan(ctx, "mine_patterns")
	defer sp.End()
	stmts := make([]*pattern.Statement, len(s.Stmts))
	for i, ps := range s.Stmts {
		stmts[i] = ps.PS
	}
	mcfg := s.cfg.Mining
	if mcfg.Parallelism == 0 {
		mcfg.Parallelism = s.cfg.Parallelism
	}
	s.MiningStats = s.MiningStats[:0]
	chained := mcfg.OnTreeBuilt
	record := func(typ pattern.Type) func(nodes, transactions int) {
		return func(nodes, transactions int) {
			s.MiningStats = append(s.MiningStats,
				MiningStat{Type: typ, TreeNodes: nodes, Transactions: transactions})
			if chained != nil {
				chained(nodes, transactions)
			}
		}
	}
	mcfg.OnTreeBuilt = record(pattern.Consistency)
	cons := mining.MinePatternsCtx(ctx, stmts, pattern.Consistency, nil, mcfg)
	mcfg.OnTreeBuilt = record(pattern.ConfusingWord)
	conf := mining.MinePatternsCtx(ctx, stmts, pattern.ConfusingWord, s.Pairs, mcfg)
	s.Patterns = append(cons, conf...)
	s.index = mining.NewIndex(s.Patterns)
	sp.SetAttrInt("patterns", len(s.Patterns))
}

// Scan matches the mined statements (s.Stmts) against the mined
// patterns, for callers that mine and then scan the same files
// (evaluation, examples) without a second front-end pass; the binaries
// use ScanFiles. It returns the deduplicated violations and the scan's
// own statistics. The statements are split into contiguous shards, one
// worker each, matched into private storage and folded in shard order,
// so the result is the same at any Parallelism.
func (s *System) Scan() *ScanResult {
	return s.ScanCtx(context.Background())
}

// ScanCtx is Scan under a tracing context: one "scan" span with a child
// span per shard. Spans are per-shard, never per-statement, so the
// match loop itself carries no tracing overhead.
func (s *System) ScanCtx(ctx context.Context) *ScanResult {
	ctx, sp := obs.StartSpan(ctx, "scan")
	defer sp.End()
	type shardOut struct {
		violations []*Violation
		stats      *features.Index
	}
	shards := parallel.Shards(len(s.Stmts), parallel.Degree(s.cfg.Parallelism))
	outs := make([]shardOut, len(shards))
	parallel.ForEach(len(shards), len(shards), func(shard int) {
		_, ssp := obs.StartSpan(ctx, "shard")
		ssp.SetAttrInt("statements", shards[shard].Hi-shards[shard].Lo)
		defer ssp.End()
		o := &outs[shard]
		o.stats, o.violations = s.matchStmts(s.Stmts[shards[shard].Lo:shards[shard].Hi])
	})
	res := &ScanResult{Stats: features.NewIndex(), Statements: len(s.Stmts)}
	var vs []*Violation
	for _, o := range outs {
		vs = append(vs, o.violations...)
		res.Stats.Merge(o.stats)
	}
	res.Violations = Dedup(vs)
	return res
}

// matchStmts matches a run of statements, returning their statistics
// (fingerprints, then pattern observations) and their violations in
// statement order, before dedup. Without a pattern index only the
// fingerprints are counted.
func (s *System) matchStmts(stmts []*ProcStmt) (*features.Index, []*Violation) {
	stats := features.NewIndex()
	for _, ps := range stmts {
		stats.AddStatement(ps.Repo, ps.Path, ps.Fingerprint)
	}
	if s.index == nil {
		return stats, nil
	}
	var vs []*Violation
	var seen []StmtObservation
	var cands []mining.Candidate
	for _, ps := range stmts {
		seen, vs = s.matchStmt(ps, &cands, seen[:0], vs)
		for _, o := range seen {
			stats.AddObservation(ps.Repo, ps.Path, o.Pattern, o.Satisfied)
		}
	}
	return stats, vs
}

// matchStmt is the per-statement matcher every scan path shares: each
// candidate pattern whose precondition the statement matches is appended
// to seen as an observation, and each explained unsatisfied one to vs.
// The candidates are looked up into *cands, a buffer the caller reuses
// across statements. Must only run with a loaded pattern index.
func (s *System) matchStmt(ps *ProcStmt, cands *[]mining.Candidate, seen []StmtObservation, vs []*Violation) ([]StmtObservation, []*Violation) {
	*cands = s.index.AppendCandidates((*cands)[:0], ps.PS)
	for _, c := range *cands {
		p := c.Pattern
		matched, satisfied, detail, violated := ps.PS.Check(p)
		if !matched {
			continue
		}
		seen = append(seen, StmtObservation{Pattern: p, Satisfied: satisfied})
		if violated {
			vs = append(vs, &Violation{Stmt: ps, Pattern: p, Detail: detail})
		}
	}
	return seen, vs
}

// Dedup collapses violations that flag the same statement with the same
// original/suggested subtokens (near-identical patterns produce duplicate
// reports); the first occurrence — the lowest pattern key — is kept.
// Statement identity is by value (location plus fingerprint), not by
// pointer, so the cached scan path — where one statement object can back
// several occurrences of the same file — deduplicates exactly like the
// uncached one.
func Dedup(vs []*Violation) []*Violation {
	type key struct {
		repo, path  string
		line        int
		fingerprint string
		original    string
		suggested   string
	}
	seen := map[key]bool{}
	out := vs[:0:0]
	for _, v := range vs {
		k := key{v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Stmt.Fingerprint,
			v.Detail.Original, v.Detail.Suggested}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, v)
	}
	return out
}

// FeatureVectorIn computes the 17 features of Table 1 for a violation
// against the statistics of the scan that found it (ScanResult.Stats,
// OverlayResult.Stats).
func (s *System) FeatureVectorIn(ix *features.Index, v *Violation) []float64 {
	return ix.Vector(features.Violation{
		Repo:        v.Stmt.Repo,
		File:        v.Stmt.Path,
		Fingerprint: v.Stmt.Fingerprint,
		NumPaths:    len(v.Stmt.PS.Paths),
		Pattern:     v.Pattern,
		Detail:      v.Detail,
	}, s.Pairs)
}

// featureMatrix computes the feature vectors of vs against ix.
func (s *System) featureMatrix(ix *features.Index, vs []*Violation) [][]float64 {
	X := make([][]float64, len(vs))
	for i, v := range vs {
		X[i] = s.FeatureVectorIn(ix, v)
	}
	return X
}

// TrainClassifier trains the defect classifier (linear SVM over
// standardized, PCA-transformed features, per §5.1) from labeled
// violations scored against ix, the statistics of the scan that found
// them. Labels are 1 for true naming issues, 0 for false positives.
func (s *System) TrainClassifier(ix *features.Index, vs []*Violation, labels []int) {
	s.classifier = s.newPipeline("svm")
	s.classifier.Fit(s.featureMatrix(ix, vs), labels)
}

// newPipeline builds the §5.1 preprocessing + model stack.
func (s *System) newPipeline(model string) *ml.Pipeline {
	seed := s.cfg.Seed
	return &ml.Pipeline{
		UsePCA: true,
		PCAK:   0,
		NewModel: func() ml.Classifier {
			switch model {
			case "logreg":
				return &ml.LogisticRegression{Epochs: 150, Seed: seed}
			case "lda":
				return &ml.LDA{}
			default:
				return &ml.LinearSVM{Epochs: 150, Seed: seed}
			}
		},
	}
}

// CrossValidate runs the §5.1 model-selection protocol (random 80/20
// splits, repeated) over labeled violations scored against ix, for the
// given model name ("svm", "logreg", "lda"), returning averaged metrics.
func (s *System) CrossValidate(ix *features.Index, vs []*Violation, labels []int, model string, repeats int) ml.Metrics {
	return ml.CrossValidate(func() *ml.Pipeline { return s.newPipeline(model) },
		s.featureMatrix(ix, vs), labels, repeats, 0.8, s.cfg.Seed)
}

// HasClassifier reports whether a classifier is trained.
func (s *System) HasClassifier() bool { return s.classifier != nil }

// ClassifyIn returns whether the violation should be reported as a
// naming issue, scoring it against ix (see FeatureVectorIn). Without a
// trained classifier every violation is reported (the "w/o C"
// ablation). Safe for concurrent use: the classifier and pattern state
// are read-only after Import/TrainClassifier.
func (s *System) ClassifyIn(ix *features.Index, v *Violation) bool {
	if s.classifier == nil {
		return true
	}
	return s.classifier.Predict(s.FeatureVectorIn(ix, v)) == 1
}

// FeatureWeights returns the trained classifier's weights mapped back to
// the 17 features of Table 1 (what Table 9 aggregates); nil before
// training.
func (s *System) FeatureWeights() []float64 {
	if s.classifier == nil {
		return nil
	}
	return s.classifier.FeatureWeights()
}

// Report renders a violation as a human-readable report with the
// suggested fix, in the style of Tables 3 and 6.
func (v *Violation) Report() string {
	var b strings.Builder
	b.WriteString(v.Stmt.Path)
	b.WriteString(":")
	b.WriteString(strconv.Itoa(v.Stmt.Line))
	b.WriteString(": ")
	if v.Stmt.SourceLine != "" {
		b.WriteString(v.Stmt.SourceLine)
	} else {
		b.WriteString(v.Stmt.Fingerprint)
	}
	b.WriteString("\n  suggested fix: replace \"")
	b.WriteString(v.Detail.Original)
	b.WriteString("\" with \"")
	b.WriteString(v.Detail.Suggested)
	b.WriteString("\" (")
	b.WriteString(v.Pattern.Type.String())
	b.WriteString(" pattern)")
	return b.String()
}
