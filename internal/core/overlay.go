// Incremental overlay scanning: the editor-session workload. An overlay
// analysis keeps the per-statement decomposition of one file's scan —
// statement, pattern observations, violations — so that the next edit
// of the file re-walks and re-matches only the statements it changed.
//
// Every analysis parses the whole new content and runs points-to on all
// of it, through the same front end scans use, because an edit in one
// function can change the origin of a statement nobody touched. Each
// statement is then keyed by its statement AST (every node's Kind and
// Value, in pre-order, plus the origin label of every identifier): the
// key fixes the statement's name paths, fingerprint and pattern matches,
// so a previous statement with the same key is reused, moved to its new
// line, and only the statements with new keys are walked and matched.
// The result is the one a from-scratch analysis gives, for every
// language. Overlay units are not published to the shared per-file scan
// cache, which holds only the front-end units of scans.
package core

import (
	"context"
	"encoding/binary"
	"strings"

	"namer/internal/ast"
	"namer/internal/astplus"
	"namer/internal/features"
	"namer/internal/mining"
	"namer/internal/obs"
	"namer/internal/pattern"
)

// StmtObservation is one pattern observation on a statement: the match
// loop saw the statement match the pattern's precondition, satisfied or
// not. Replaying observations rebuilds the statistics index without
// re-running the matcher.
type StmtObservation struct {
	Pattern   *pattern.Pattern
	Satisfied bool
}

// FileAnalysis is the per-statement decomposition of one file's scan,
// the unit of reuse for overlay edits. It is immutable once built; a
// later analysis copies the statements it reuses.
type FileAnalysis struct {
	Repo  string
	Path  string
	Stmts []*StmtAnalysis
}

// StmtAnalysis is one statement's share of a file analysis.
type StmtAnalysis struct {
	Stmt *ProcStmt
	Obs  []StmtObservation
	// Violations are this statement's pre-dedup violations; their Stmt
	// pointer is exactly Stmt, so fingerprint-multiset diffing by
	// pointer membership works on reused statements too.
	Violations []*Violation
	// key is the statement's reuse key (see appendStmtKey).
	key string
}

// OverlayResult is the outcome of one overlay (re-)analysis.
type OverlayResult struct {
	// Analysis is the new per-statement decomposition; hand it back as
	// prev on the next edit.
	Analysis *FileAnalysis
	// Violations are the file's violations, deduplicated, in statement
	// order.
	Violations []*Violation
	// Stats is the file-local statistics index, equivalent to what a
	// ScanFiles of the file would produce; classify against it.
	Stats *features.Index
	// Statements counts analyzed statements; ReusedStatements how many
	// were taken over from the previous analysis rather than walked and
	// matched again.
	Statements       int
	ReusedStatements int
	// Incremental reports whether a previous analysis of the same file
	// was used (false: every statement was walked and matched).
	Incremental bool
}

// Statements returns the analyzed statements in order.
func (fa *FileAnalysis) Statements() []*ProcStmt {
	out := make([]*ProcStmt, len(fa.Stmts))
	for i, sa := range fa.Stmts {
		out[i] = sa.Stmt
	}
	return out
}

// Stats rebuilds the analysis's statistics index by replaying its
// statements and observations, in the same two passes the scan path
// uses (all statements, then all observations) — no parsing or
// matching involved.
func (fa *FileAnalysis) Stats() *features.Index {
	stats := features.NewIndex()
	for _, sa := range fa.Stmts {
		stats.AddStatement(sa.Stmt.Repo, sa.Stmt.Path, sa.Stmt.Fingerprint)
	}
	for _, sa := range fa.Stmts {
		for _, o := range sa.Obs {
			stats.AddObservation(sa.Stmt.Repo, sa.Stmt.Path, o.Pattern, o.Satisfied)
		}
	}
	return stats
}

// RawViolations returns the pre-dedup violations in statement order —
// the shape IntroducedViolations expects.
func (fa *FileAnalysis) RawViolations() []*Violation {
	var out []*Violation
	for _, sa := range fa.Stmts {
		out = append(out, sa.Violations...)
	}
	return out
}

// AnalyzeOverlay is AnalyzeOverlayCtx without tracing. The third
// argument is ignored; it stays only because perfbench passes one.
func (s *System) AnalyzeOverlay(f *InputFile, prev *FileAnalysis, _ any) (*OverlayResult, error) {
	return s.AnalyzeOverlayCtx(context.Background(), f, prev)
}

// AnalyzeOverlayCtx analyzes one overlay file against the system's
// knowledge. The whole content goes through the front end scans use
// (parse, points-to); each statement whose key recurs among the
// statements of prev, a previous analysis of the same file by this
// system (its knowledge and configuration), takes over that statement's
// analysis, and only the others are walked and matched.
// The result equals a from-scratch analysis of the content. Like
// ScanFilesCtx it is read-only on the system and safe for concurrent
// use. The error is the file's parse/analysis failure; prev stays valid
// in that case.
func (s *System) AnalyzeOverlayCtx(ctx context.Context, f *InputFile, prev *FileAnalysis) (*OverlayResult, error) {
	ctx, sp := obs.StartSpan(ctx, "overlay")
	defer sp.End()
	sp.SetAttr("path", f.Path)
	if prev != nil && (prev.Repo != f.Repo || prev.Path != f.Path) {
		prev = nil
	}
	var fa *FileAnalysis
	var reused int
	if _, _, err := s.frontEnd(ctx, f, func(f *InputFile) { fa, reused = s.analyzeFile(f, prev) }); err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	res := fa.result(reused, prev != nil)
	if res.Incremental {
		sp.SetAttr("mode", "incremental")
	} else {
		sp.SetAttr("mode", "full")
	}
	sp.SetAttrInt("statements", res.Statements)
	sp.SetAttrInt("reused", res.ReusedStatements)
	return res, nil
}

// analyzeFile is the overlay's statement loop over a parsed file. A
// statement whose key matches one of prev's statements (prev may be
// nil) takes over that statement's analysis, moved to its own line;
// every other statement is built as ProcessFile builds it and matched.
// It returns the analysis and how many statements were taken over.
func (s *System) analyzeFile(f *InputFile, prev *FileAnalysis) (*FileAnalysis, int) {
	var byKey map[string]*StmtAnalysis
	if prev != nil {
		byKey = make(map[string]*StmtAnalysis, len(prev.Stmts))
		for _, sa := range prev.Stmts {
			byKey[sa.key] = sa
		}
	}
	origin := s.origins(f.Root)
	w := astplus.NewWalker(origin)
	lines := strings.Split(f.Source, "\n")
	fa := &FileAnalysis{Repo: f.Repo, Path: f.Path}
	reused := 0
	var key []byte
	var cands []mining.Candidate
	for _, stmt := range ast.Statements(f.Root) {
		key = appendStmtKey(key[:0], stmt.Root, origin)
		if sa := byKey[string(key)]; sa != nil {
			fa.Stmts = append(fa.Stmts, sa.moveTo(stmt.Line, sourceLine(lines, stmt.Line)))
			reused++
			continue
		}
		ps := s.procStmt(f, lines, w, stmt)
		if ps == nil {
			continue
		}
		sa := &StmtAnalysis{Stmt: ps, key: string(key)}
		if s.index != nil {
			sa.Obs, sa.Violations = s.matchStmt(ps, &cands, nil, nil)
		}
		fa.Stmts = append(fa.Stmts, sa)
	}
	return fa, reused
}

// appendStmtKey appends the reuse key of the statement tree rooted at n
// to buf: in pre-order, every node's Kind, Value and child count, and
// the origin label of every identifier terminal, strings prefixed by
// their length. That is everything the name-path walk, the fingerprint
// and so the matcher read of a statement (the walk's literal
// abstraction and NumArgs read Kind, which the fingerprint leaves out),
// so two statements with one key have one analysis up to their line.
func appendStmtKey(buf []byte, n *ast.Node, origin astplus.OriginFunc) []byte {
	buf = append(buf, byte(n.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(n.Value)))
	buf = append(buf, n.Value...)
	buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
	if n.Kind == ast.Ident && n.IsTerminal() && origin != nil {
		label, _ := origin(n)
		buf = binary.AppendUvarint(buf, uint64(len(label)))
		buf = append(buf, label...)
	}
	for _, c := range n.Children {
		buf = appendStmtKey(buf, c, origin)
	}
	return buf
}

// moveTo returns a copy of the statement analysis at line, whose trimmed
// source text is src. Every analysis owns its statements, so previous
// analyses stay immutable and no statement pointer appears twice; the
// copied violations point at the copied statement, which keeps
// pointer-membership diffing coherent.
func (sa *StmtAnalysis) moveTo(line int, src string) *StmtAnalysis {
	ps := *sa.Stmt
	ps.Line, ps.SourceLine = line, src
	cp := &StmtAnalysis{Stmt: &ps, Obs: sa.Obs, key: sa.key}
	if len(sa.Violations) > 0 {
		cp.Violations = make([]*Violation, len(sa.Violations))
		for i, v := range sa.Violations {
			cv := *v
			cv.Stmt = &ps
			cp.Violations[i] = &cv
		}
	}
	return cp
}

// result folds the per-statement decomposition into an OverlayResult.
func (fa *FileAnalysis) result(reused int, incremental bool) *OverlayResult {
	return &OverlayResult{
		Analysis:         fa,
		Violations:       Dedup(fa.RawViolations()),
		Stats:            fa.Stats(),
		Statements:       len(fa.Stmts),
		ReusedStatements: reused,
		Incremental:      incremental,
	}
}
