// Incremental overlay scanning: the editor-session workload. An overlay
// analysis keeps the per-statement decomposition of one file's scan —
// statement, pattern observations, violations — so that a keystroke-sized
// edit can be re-analyzed by splicing: statements before the edited
// region are reused as-is, statements after it are reused with their
// lines shifted, and only the enclosing top-level region is re-parsed
// and re-matched. A full /v1/scan re-parses the whole file even on a
// cache-backed warm path; the overlay path does not, which is what puts
// a warm single-file change-scan an order of magnitude under a cold one.
//
// Safety model: the edited lines are whatever lies between the longest
// common line prefix and suffix of the previous and the new content, so
// the lines outside them are unedited by construction, however many
// edits (or failed scans) came in between. The incremental path is
// taken only when the region boundaries around the edited lines are
// top-level statement starts in both versions and the re-parsed region
// yields statements strictly inside the region. Anything suspicious — a
// boundary the line classifier cannot place, a region parse failure,
// statements escaping the region — falls back to a full re-analysis of
// the new content.
// Overlay units are never published to the shared per-file scan cache:
// with points-to analysis enabled, a region re-analysis computes origins
// from the region subtree only, so a spliced analysis may differ from a
// from-scratch one on cross-region dataflow (the documented
// interactive-mode approximation; with UseAnalysis off the spliced and
// full analyses are identical). The cache's byte-identical invariant
// stays intact because only full-file front-end units ever enter it.
package core

import (
	"context"
	"strings"

	"namer/internal/ast"
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
// the unit of reuse for overlay edits. It is immutable once built;
// splicing copies the shifted parts.
type FileAnalysis struct {
	Repo   string
	Path   string
	Source string // the exact content this analysis was computed from
	Stmts  []*StmtAnalysis
}

// StmtAnalysis is one statement's share of a file analysis.
type StmtAnalysis struct {
	Stmt *ProcStmt
	Obs  []StmtObservation
	// Violations are this statement's pre-dedup violations; their Stmt
	// pointer is exactly Stmt, so fingerprint-multiset diffing by
	// pointer membership works on spliced analyses too.
	Violations []*Violation
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
	// were spliced from the previous analysis rather than re-analyzed.
	Statements       int
	ReusedStatements int
	// Incremental reports whether the region splice was taken (false:
	// full re-analysis).
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
// knowledge. With a previous analysis of the same file it attempts the
// incremental region splice; otherwise — or whenever the splice cannot
// be verified — it re-analyzes the whole content. Like ScanFilesCtx it
// is read-only on the system and safe for concurrent use. The error is
// the file's parse/analysis failure; the previous analysis stays valid
// in that case.
func (s *System) AnalyzeOverlayCtx(ctx context.Context, f *InputFile, prev *FileAnalysis) (*OverlayResult, error) {
	ctx, sp := obs.StartSpan(ctx, "overlay")
	defer sp.End()
	sp.SetAttr("path", f.Path)
	if prev != nil && s.cfg.Lang == ast.Python &&
		prev.Repo == f.Repo && prev.Path == f.Path {
		if res := s.rescanRegion(ctx, f, prev); res != nil {
			sp.SetAttr("mode", "incremental")
			sp.SetAttrInt("statements", res.Statements)
			return res, nil
		}
	}
	res, err := s.overlayFull(ctx, f)
	if err != nil {
		sp.SetAttr("error", err.Error())
		return nil, err
	}
	sp.SetAttr("mode", "full")
	sp.SetAttrInt("statements", res.Statements)
	return res, nil
}

// overlayFull analyzes the whole content from scratch.
func (s *System) overlayFull(ctx context.Context, f *InputFile) (*OverlayResult, error) {
	_, stmts, _, err := s.frontEnd(ctx, f)
	if err != nil {
		return nil, err
	}
	fa := &FileAnalysis{Repo: f.Repo, Path: f.Path, Source: f.Source,
		Stmts: make([]*StmtAnalysis, len(stmts))}
	var cands []mining.Candidate
	for i, ps := range stmts {
		fa.Stmts[i] = s.analyzeStmt(ps, &cands)
	}
	return fa.result(0, false), nil
}

// rescanRegion attempts the incremental path; nil means "could not be
// verified, take the full path" (including region parse errors — the
// full parse is authoritative on whether the content is broken).
func (s *System) rescanRegion(ctx context.Context, f *InputFile, prev *FileAnalysis) *OverlayResult {
	if f.Source == prev.Source {
		return prev.result(len(prev.Stmts), true)
	}
	// Split, not trimmed: a final "" element stands for a trailing
	// newline, so a file end that gains or loses one is an edit too.
	oldLines := strings.Split(prev.Source, "\n")
	newLines := strings.Split(f.Source, "\n")
	// The edit is whatever lies between the longest common line prefix
	// and suffix of the two versions, so everything outside it is
	// unedited by construction.
	n := min(len(oldLines), len(newLines))
	pre := 0
	for pre < n && oldLines[pre] == newLines[pre] {
		pre++
	}
	suf := 0
	for suf < n-pre && oldLines[len(oldLines)-1-suf] == newLines[len(newLines)-1-suf] {
		suf++
	}
	delta := len(newLines) - len(oldLines)
	oldB := pyBoundaries(oldLines)
	newB := pyBoundaries(newLines)

	// B: the last line at or before the first edited line that starts a
	// top-level statement in both versions — the region's left edge.
	B := 0
	for b := min(pre+1, n); b >= 1; b-- {
		if oldB[b-1] && newB[b-1] {
			B = b
			break
		}
	}
	if B == 0 {
		return nil
	}
	// eOld/eNew: the first common-suffix line past the edited lines (and
	// past B) that starts a top-level statement in both versions — the
	// region's right edge (exclusive).
	eOld := len(oldLines) + 1
	for e := max(len(oldLines)-suf, B) + 1; e <= len(oldLines); e++ {
		if oldB[e-1] && newB[e-1+delta] {
			eOld = e
			break
		}
	}
	eNew := eOld + delta

	// Re-parse just the region — its exact bytes, so a region at the end
	// of the file ends as the file does — with a blank-line prefix so
	// statement lines come out absolute. Fingerprints are structural (no
	// positions), so a standalone region parse matches the in-file one.
	var sb strings.Builder
	sb.Grow(B + 64*(eNew-B))
	for i := 1; i < B; i++ {
		sb.WriteByte('\n')
	}
	for i := B - 1; i < eNew-1; i++ {
		sb.WriteString(newLines[i])
		if i+1 < len(newLines) {
			sb.WriteByte('\n')
		}
	}
	_, stmts, _, err := s.frontEnd(ctx, &InputFile{Repo: f.Repo, Path: f.Path, Source: sb.String()})
	if err != nil {
		return nil
	}
	for _, ps := range stmts {
		if ps.Line < B || ps.Line >= eNew {
			return nil
		}
	}

	// Splice: prefix reused as-is, region re-analyzed, suffix reused
	// with lines shifted. Previous statements must come in prefix /
	// region / suffix runs (ast.Statements emits nondecreasing lines);
	// anything out of order bails to the full path.
	out := make([]*StmtAnalysis, 0, len(prev.Stmts)+len(stmts))
	var cands []mining.Candidate
	reused := 0
	phase := 0 // 0 prefix, 1 old region, 2 suffix
	for _, sa := range prev.Stmts {
		switch {
		case sa.Stmt.Line < B:
			if phase != 0 {
				return nil
			}
			out = append(out, sa)
			reused++
		case sa.Stmt.Line < eOld:
			if phase == 2 {
				return nil
			}
			if phase == 0 {
				phase = 1
				for _, ps := range stmts {
					out = append(out, s.analyzeStmt(ps, &cands))
				}
			}
		default:
			if phase == 0 {
				for _, ps := range stmts {
					out = append(out, s.analyzeStmt(ps, &cands))
				}
			}
			phase = 2
			out = append(out, sa.shift(delta))
			reused++
		}
	}
	if phase == 0 {
		// No previous statement at or past the region (e.g. appending
		// at EOF): the region statements still go in.
		for _, ps := range stmts {
			out = append(out, s.analyzeStmt(ps, &cands))
		}
	}
	fa := &FileAnalysis{Repo: f.Repo, Path: f.Path, Source: f.Source, Stmts: out}
	return fa.result(reused, true)
}

// analyzeStmt runs the shared matcher on one statement, keeping its
// observations and violations for reuse by later splices. cands is the
// caller's candidate buffer (see matchStmt).
func (s *System) analyzeStmt(ps *ProcStmt, cands *[]mining.Candidate) *StmtAnalysis {
	sa := &StmtAnalysis{Stmt: ps}
	if s.index != nil {
		sa.Obs, sa.Violations = s.matchStmt(ps, cands, nil, nil)
	}
	return sa
}

// shift returns the statement analysis moved by delta lines; the
// original is left untouched (previous analyses are immutable). The
// violation copies point at the shifted statement so pointer-membership
// diffing stays coherent.
func (sa *StmtAnalysis) shift(delta int) *StmtAnalysis {
	if delta == 0 {
		return sa
	}
	ps := *sa.Stmt
	ps.Line += delta
	cp := &StmtAnalysis{Stmt: &ps, Obs: sa.Obs}
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
	var vs []*Violation
	for _, sa := range fa.Stmts {
		vs = append(vs, sa.Violations...)
	}
	return &OverlayResult{
		Analysis:         fa,
		Violations:       Dedup(vs),
		Stats:            fa.Stats(),
		Statements:       len(fa.Stmts),
		ReusedStatements: reused,
		Incremental:      incremental,
	}
}

// pyBoundaries classifies each line (index i ↔ line i+1) of a Python
// source as a safe region boundary: a column-0 line that starts a fresh
// top-level statement. Lines inside brackets, triple-quoted strings, or
// after a backslash continuation are not starts; neither are
// else/elif/except/finally clause headers (they belong to an enclosing
// compound statement) nor the statement a decorator stack attaches to
// (the region must begin at the first decorator, never between it and
// its def).
func pyBoundaries(lines []string) []bool {
	out := make([]bool, len(lines))
	depth := 0
	var triple byte
	cont := false
	afterDec := false
	for i, line := range lines {
		// A CRLF file's trailing \r ends the line; it is not content.
		line = strings.TrimSuffix(line, "\r")
		startable := triple == 0 && depth == 0 && !cont
		if startable && line != "" {
			c := line[0]
			if c != ' ' && c != '\t' && c != '#' {
				switch {
				case leadingWordIn(line, "else", "elif", "except", "finally"):
					// clause of an enclosing compound statement
				case c == '@':
					out[i] = !afterDec
					afterDec = true
				default:
					out[i] = !afterDec
					afterDec = false
				}
			}
		}
		depth, triple, cont = pyLexLine(line, depth, triple)
	}
	return out
}

// leadingWordIn reports whether the line's first identifier-ish word is
// one of the given keywords.
func leadingWordIn(line string, kws ...string) bool {
	end := 0
	for end < len(line) {
		c := line[end]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
			end++
			continue
		}
		break
	}
	w := line[:end]
	for _, kw := range kws {
		if w == kw {
			return true
		}
	}
	return false
}

// pyLexLine carries the line-spanning lexical state (bracket depth,
// open triple-quoted string, backslash continuation) across one line.
// It is deliberately approximate — e.g. nested f-string quoting is not
// modeled — because a misclassification can only mis-place a region
// boundary, and every region is re-parsed and checked before its splice
// is trusted.
func pyLexLine(line string, depth int, triple byte) (int, byte, bool) {
	i, n := 0, len(line)
	for i < n {
		if triple != 0 {
			if line[i] == '\\' {
				i += 2
				continue
			}
			if line[i] == triple && i+2 < n && line[i+1] == triple && line[i+2] == triple {
				triple = 0
				i += 3
				continue
			}
			i++
			continue
		}
		switch c := line[i]; c {
		case '#':
			return depth, triple, false
		case '(', '[', '{':
			depth++
			i++
		case ')', ']', '}':
			if depth > 0 {
				depth--
			}
			i++
		case '\'', '"':
			if i+2 < n && line[i+1] == c && line[i+2] == c {
				triple = c
				i += 3
				continue
			}
			j := i + 1
			closed := false
			for j < n {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == c {
					closed = true
					j++
					break
				}
				j++
			}
			i = j
			if !closed {
				// An unterminated single-quoted string only parses
				// with a trailing backslash; either way the next line
				// continues this statement.
				return depth, triple, true
			}
		case '\\':
			if i == n-1 {
				return depth, triple, true
			}
			i += 2
		default:
			i++
		}
	}
	return depth, triple, false
}
