package core

import (
	"context"
	"fmt"
	"time"

	"namer/internal/ast"
	"namer/internal/features"
	"namer/internal/golang"
	"namer/internal/javalang"
	"namer/internal/obs"
	"namer/internal/parallel"
	"namer/internal/pylang"
)

// ParseSource parses one source file with the language front end. Parser
// panics (the pylang/javalang parsers re-panic on internal errors) are
// contained and returned as errors, so callers feeding untrusted input —
// directory walks and serve requests alike — cannot be killed by one
// pathological file.
func ParseSource(lang ast.Language, source string) (root *ast.Node, err error) {
	defer func() {
		if r := recover(); r != nil {
			root, err = nil, fmt.Errorf("core: %v parser panic: %v", lang, r)
		}
	}()
	switch lang {
	case ast.Python:
		return pylang.Parse(source)
	case ast.Java:
		return javalang.Parse(source)
	case ast.Go:
		return golang.Parse(source)
	}
	return nil, fmt.Errorf("core: no parser for %v", lang)
}

// StageTimings breaks one ScanFiles or DiffFiles call into its pipeline
// stages, so the serving layer can export per-stage latency histograms
// and an operator can tell front-end cost (parsing, analysis, AST+
// transformation, path extraction) apart from pattern-index matching.
// Under a tracing context the Process/Match values are a derived view of
// the "process" and "match" spans; without one they are measured
// directly, so the histograms stay populated either way.
type StageTimings struct {
	// Parse is the source-parsing time summed over the request's files
	// (on several workers it can exceed Process); zero for files served
	// from the cache or handed in pre-parsed.
	Parse time.Duration
	// Process is the per-file front-end time: parsing (when needed),
	// points-to analysis, AST+ transformation, and name path extraction.
	Process time.Duration
	// Match is the pattern matching time: candidate lookup, predicate
	// evaluation, explanation, and dedup.
	Match time.Duration
}

// ScanResult is the outcome of a scan: ScanFiles, or Scan over the
// mined statements (which fills only Violations, Stats and Statements).
type ScanResult struct {
	// Violations are the deduplicated pattern violations found in the
	// scanned files, in deterministic order.
	Violations []*Violation
	// Stats is the scan's own statistics index the violations are
	// scored against; pass it to ClassifyIn/FeatureVectorIn.
	Stats *features.Index
	// Statements is how many statements were extracted and matched.
	Statements int
	// FilesParsed counts the input files that produced an AST (handed in
	// pre-parsed, parsed here, or served from the cache); the difference
	// from len(files) is itemized in Errors.
	FilesParsed int
	// CacheHits/CacheMisses count per-file cache lookups for this scan;
	// both stay zero when no cache is installed.
	CacheHits   int
	CacheMisses int
	// Errors holds per-file parse/analysis failures; files that fail are
	// skipped, the rest are scanned normally.
	Errors []error
	// Timings records how long each scan stage took (see StageTimings).
	Timings StageTimings
}

// stage opens a child span and a fallback stopwatch; the returned stop
// function ends the span and reports the stage duration — the span's
// own duration when tracing is live (so StageTimings is exactly the
// span view), a direct measurement otherwise.
func stage(ctx context.Context, name string) (context.Context, func() time.Duration) {
	cctx, sp := obs.StartSpan(ctx, name)
	start := time.Now()
	return cctx, func() time.Duration {
		sp.End()
		if d, ok := sp.Duration(); ok {
			return d
		}
		return time.Since(start)
	}
}

// fileEval tracks one input file through the per-file pipeline.
type fileEval struct {
	key   string      // cache key; "" when the cache is bypassed
	ent   *CachedFile // nil when the file failed to parse
	hit   bool
	parse time.Duration
	err   error
}

// frontEndFiles runs the front end over files on the worker pool under
// a "process" stage, consulting the cache first, and records the Parse
// and Process timings. A cache hit is a complete unit, match output
// included; a miss carries the AST and statements for matchFiles.
func (s *System) frontEndFiles(ctx context.Context, files []*InputFile, timings *StageTimings) []*fileEval {
	pctx, stop := stage(ctx, "process")
	evals := make([]*fileEval, len(files))
	s.eachFile(pctx, files, func(fctx context.Context, sp *obs.Span, i int) int {
		fe := &fileEval{}
		evals[i] = fe
		if s.cacheActive() {
			fe.key = s.FileCacheKey(files[i])
			if fe.ent, fe.hit = s.cache.Get(fe.key); fe.hit {
				sp.SetAttr("cache_hit", "true")
				return len(fe.ent.Stmts)
			}
			sp.SetAttr("cache_hit", "false")
		}
		var stmts []*ProcStmt
		root, parse, err := s.frontEnd(fctx, files[i], func(f *InputFile) { stmts = s.ProcessFile(f) })
		if fe.parse, fe.err = parse, err; err != nil {
			sp.SetAttr("error", err.Error())
		}
		if root != nil {
			fe.ent = &CachedFile{Root: root, Stmts: stmts}
		}
		return len(stmts)
	})
	for _, fe := range evals {
		timings.Parse += fe.parse
	}
	timings.Process = stop()
	return evals
}

// matchFiles finishes the missed units among evals on the worker pool:
// each gets its statistics (statements, then pattern observations) and
// violations from matchStmts, and is published to the cache. Cache hits
// are already complete. Every eval must have survived the front end.
func (s *System) matchFiles(evals []*fileEval) {
	parallel.ForEach(len(evals), parallel.Degree(s.cfg.Parallelism), func(i int) {
		fe := evals[i]
		if fe.hit {
			return
		}
		fe.ent.Stats, fe.ent.Violations = s.matchStmts(fe.ent.Stmts)
		if fe.key != "" {
			fe.ent.Cost = fe.ent.cost()
			s.cache.Add(fe.key, fe.ent)
		}
	})
}

// accountEval folds one per-file evaluation into the scan result's
// counters and error list; it reports whether the file survived.
func accountEval(fe *fileEval, parsed, hits, misses *int, errs *[]error) bool {
	if fe.hit {
		*hits++
	} else if fe.key != "" {
		*misses++
	}
	if fe.ent != nil {
		*parsed++
	}
	if fe.err != nil {
		*errs = append(*errs, fe.err)
		return false
	}
	return true
}

// ScanFiles is how the binaries detect violations: it analyzes the given
// files against the system's mined knowledge without touching system
// state (statements and statistics live in the returned ScanResult), so
// the serving layer runs one per request over a shared System. The
// system must not be mutated (mining, training, importing) while scans
// are in flight. Files may arrive pre-parsed (Root set) or as raw
// Source; with a FileCache installed, repeat files skip the whole
// pipeline. The front end and the match stage run on the
// Config.Parallelism pool and merge in input order.
func (s *System) ScanFiles(files []*InputFile) *ScanResult {
	return s.ScanFilesCtx(context.Background(), files)
}

// ScanFilesCtx is ScanFiles under a tracing context: a "process" span
// (one "file" child per input with path, cache_hit, and statement-count
// attributes, plus a "parse" child per parsed file) and a "match" span,
// from which ScanResult.Timings is derived.
func (s *System) ScanFilesCtx(ctx context.Context, files []*InputFile) *ScanResult {
	res := &ScanResult{Stats: features.NewIndex()}
	var live []*fileEval
	for _, fe := range s.frontEndFiles(ctx, files, &res.Timings) {
		if !accountEval(fe, &res.FilesParsed, &res.CacheHits, &res.CacheMisses, &res.Errors) {
			continue
		}
		res.Statements += len(fe.ent.Stmts)
		live = append(live, fe)
	}
	// Without knowledge there is nothing to match against, so no match
	// stage is timed, but the statement statistics are still reported.
	var stopMatch func() time.Duration
	if s.index != nil {
		_, stopMatch = stage(ctx, "match")
	}
	s.matchFiles(live)
	var vs []*Violation
	for _, fe := range live {
		res.Stats.Merge(fe.ent.Stats)
		vs = append(vs, fe.ent.Violations...)
	}
	res.Violations = Dedup(vs)
	if stopMatch != nil {
		res.Timings.Match = stopMatch()
	}
	return res
}
