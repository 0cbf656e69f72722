// Diff-aware scanning: the CI/PR-review workload. A diff scan takes
// before/after versions of files, analyzes both sides through the same
// cached per-file units as ScanFiles, and reports only the violations
// *introduced* by the change — what a review bot should comment on a PR,
// rather than re-litigating every pre-existing issue in the file.
//
// Semantics, per file:
//
//   - Statements are compared by fingerprint multiset. After-side
//     statements not covered by the before side are the changed set;
//     only their violations are candidates.
//   - Violations carried over from changed before-side statements (same
//     original/suggested rewrite on a statement that was merely edited)
//     are subtracted, so editing an already-flagged line without fixing
//     it is not re-reported as a new issue.
//   - Classification runs against the after side's statistics, the same
//     statistics a full /v1/scan of the after files would use.
//
// treediff aligns the before/after ASTs (the same alignment the pair
// miner applies to commit histories) and reports identifier renames;
// renames matching a mined confusing-word pair are flagged, surfacing
// "this rename goes from/to a commonly confused name" directly in
// review.
package core

import (
	"context"
	"errors"

	"namer/internal/features"
	"namer/internal/obs"
	"namer/internal/subtoken"
	"namer/internal/treediff"
)

// DiffFile is one before/after file pair handed to the diff scan.
type DiffFile struct {
	Repo   string
	Path   string
	Before string
	After  string
}

// Rename is one identifier rename the tree alignment found, attributed
// to its file.
type Rename struct {
	Path   string
	Before string
	After  string
	// KnownPair reports whether the renamed subtoken pair (in either
	// direction) is in the mined confusing-word pair set — the rename
	// crosses a boundary developers demonstrably mix up.
	KnownPair bool
}

// DiffResult is the outcome of a diff scan (DiffFiles).
type DiffResult struct {
	// Introduced are the violations present on changed after-side
	// statements and not carried over from the before side, deduplicated,
	// in deterministic order.
	Introduced []*Violation
	// Renames are the identifier renames of the tree alignment, deduped
	// per file in first-occurrence order.
	Renames []Rename
	// Stats is the after side's statistics index; classify Introduced
	// against it (ClassifyIn), exactly as a full scan of the after files
	// would.
	Stats *features.Index
	// Statements counts after-side statements; Changed counts the subset
	// not present (by fingerprint) in the before side.
	Statements int
	Changed    int
	// FilesParsed counts the file pairs where both sides parsed.
	FilesParsed int
	// CacheHits/CacheMisses aggregate per-file cache lookups across both
	// sides.
	CacheHits   int
	CacheMisses int
	// Errors holds per-side parse/analysis failures; a pair with a failed
	// side is skipped, the rest are diffed normally.
	Errors []error
	// Timings records the stage split (see StageTimings).
	Timings StageTimings
}

// ErrNoKnowledge is returned (via DiffResult.Errors) when a diff scan
// runs before any knowledge is mined or imported.
var ErrNoKnowledge = errors.New("core: no knowledge loaded")

// DiffFiles is DiffFilesCtx without tracing.
func (s *System) DiffFiles(files []DiffFile) *DiffResult {
	return s.DiffFilesCtx(context.Background(), files)
}

// DiffFilesCtx scans before/after file pairs and reports only the
// violations introduced by the change, plus the identifier renames of
// the AST alignment. Like ScanFilesCtx it is read-only on the system,
// safe for concurrent use, and serves both sides of every pair from the
// per-file cache when one is installed. Both sides of every pair go
// through the same front end and match stage as ScanFiles, on the same
// worker pool. Span structure: "process" (one "file" child per side),
// "match", and "align" for the tree diff.
func (s *System) DiffFilesCtx(ctx context.Context, files []DiffFile) *DiffResult {
	res := &DiffResult{Stats: features.NewIndex()}
	if s.index == nil {
		res.Errors = append(res.Errors, ErrNoKnowledge)
		return res
	}

	inputs := make([]*InputFile, 0, 2*len(files))
	for _, df := range files {
		inputs = append(inputs,
			&InputFile{Repo: df.Repo, Path: df.Path, Source: df.Before},
			&InputFile{Repo: df.Repo, Path: df.Path, Source: df.After})
	}
	evals := s.frontEndFiles(ctx, inputs, &res.Timings)
	// live holds the (before, after) evals of every pair whose two sides
	// survived the front end; kept holds those pairs' indices in files.
	var live []*fileEval
	var kept []int
	for i := range files {
		b, a := evals[2*i], evals[2*i+1]
		okB := accountEval(b, new(int), &res.CacheHits, &res.CacheMisses, &res.Errors)
		okA := accountEval(a, new(int), &res.CacheHits, &res.CacheMisses, &res.Errors)
		if okB && okA {
			res.FilesParsed++
			live = append(live, b, a)
			kept = append(kept, i)
		}
	}

	_, stopMatch := stage(ctx, "match")
	s.matchFiles(live)
	var introduced []*Violation
	for k := 0; k < len(live); k += 2 {
		before, after := live[k].ent, live[k+1].ent
		res.Stats.Merge(after.Stats)
		res.Statements += len(after.Stmts)
		intro, changed := IntroducedViolations(before.Stmts, after.Stmts, before.Violations, after.Violations)
		res.Changed += changed
		introduced = append(introduced, intro...)
	}
	res.Introduced = Dedup(introduced)
	res.Timings.Match = stopMatch()

	_, alignSp := obs.StartSpan(ctx, "align")
	for k, i := range kept {
		seen := map[[2]string]bool{}
		for _, r := range treediff.Diff(live[2*k].ent.Root, live[2*k+1].ent.Root) {
			key := [2]string{r.Before, r.After}
			if seen[key] {
				continue
			}
			seen[key] = true
			res.Renames = append(res.Renames, Rename{
				Path:      files[i].Path,
				Before:    r.Before,
				After:     r.After,
				KnownPair: s.renameKnownPair(r.Before, r.After),
			})
		}
	}
	alignSp.SetAttrInt("renames", len(res.Renames))
	alignSp.End()
	return res
}

// IntroducedViolations reports the violations introduced by going from
// the before statements/violations to the after side of one file — the
// per-pair core of DiffFilesCtx, shared with the session overlay path.
// Changed statements on each side are the occurrences not covered by
// the other side's fingerprint multiset (so k unchanged copies cancel k
// copies, and the k+1st counts as changed); rewrites already flagged on
// changed before-side statements are carried over, not introduced. The
// violation slices are pre-dedup (per-file, statement order); the
// after-side violations must reference the after statements by pointer.
// It also returns the number of changed after-side statements. Swapping
// the two sides yields the violations *resolved* by the change.
func IntroducedViolations(beforeStmts, afterStmts []*ProcStmt, beforeViols, afterViols []*Violation) ([]*Violation, int) {
	changedAfter := uncovered(afterStmts, beforeStmts)
	changedBefore := uncovered(beforeStmts, afterStmts)

	carried := map[[2]string]int{}
	for _, v := range Dedup(beforeViols) {
		if changedBefore[v.Stmt] {
			carried[[2]string{v.Detail.Original, v.Detail.Suggested}]++
		}
	}
	var introduced []*Violation
	for _, v := range Dedup(afterViols) {
		if !changedAfter[v.Stmt] {
			continue
		}
		k := [2]string{v.Detail.Original, v.Detail.Suggested}
		if carried[k] > 0 {
			carried[k]--
			continue
		}
		introduced = append(introduced, v)
	}
	return introduced, len(changedAfter)
}

// uncovered returns the statements of xs whose fingerprint occurrence is
// not covered by the fingerprint multiset of ys, preserving xs order via
// map iteration on pointer membership at the call site.
func uncovered(xs, ys []*ProcStmt) map[*ProcStmt]bool {
	cover := map[string]int{}
	for _, ps := range ys {
		cover[ps.Fingerprint]++
	}
	out := map[*ProcStmt]bool{}
	for _, ps := range xs {
		if cover[ps.Fingerprint] > 0 {
			cover[ps.Fingerprint]--
			continue
		}
		out[ps] = true
	}
	return out
}

// renameKnownPair reports whether the before→after identifier rename
// differs in exactly one subtoken and that subtoken pair (in either
// direction) is in the mined confusing-word pair set — the same
// single-subtoken alignment the pair miner applies to commit diffs.
func (s *System) renameKnownPair(before, after string) bool {
	if s.Pairs == nil {
		return false
	}
	sb, sa := subtoken.Split(before), subtoken.Split(after)
	if len(sb) != len(sa) {
		return false
	}
	w1, w2 := "", ""
	for i := range sb {
		if sb[i] == sa[i] {
			continue
		}
		if w1 != "" {
			return false // more than one subtoken changed
		}
		w1, w2 = sb[i], sa[i]
	}
	if w1 == "" {
		return false
	}
	return s.Pairs.Contains(w1, w2) || s.Pairs.Contains(w2, w1)
}
