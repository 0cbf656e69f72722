// Package confusion mines confusing word pairs ⟨w1, w2⟩ from commit
// histories (§3.2): pairs where a prior version of the code used the
// mistaken word w1 in a place later fixed to the correct word w2. Pairs
// feed the confusing-word name patterns (Definition 3.9) and feature 17 of
// the defect classifier.
package confusion

import (
	"sort"

	"namer/internal/ast"
	"namer/internal/subtoken"
	"namer/internal/treediff"
)

// Commit is one before/after pair of parsed file versions.
type Commit struct {
	Before *ast.Node
	After  *ast.Node
}

// PairSet stores mined confusing word pairs with occurrence counts. The
// mistaken word maps to the correct word.
type PairSet struct {
	counts  map[[2]string]int
	correct map[string]bool // words that appear as the correct side
}

// NewPairSet returns an empty set.
func NewPairSet() *PairSet {
	return &PairSet{counts: make(map[[2]string]int), correct: make(map[string]bool)}
}

// Add records one observation of mistaken -> correct.
func (ps *PairSet) Add(mistaken, correct string) {
	if mistaken == "" || correct == "" || mistaken == correct {
		return
	}
	ps.counts[[2]string{mistaken, correct}]++
	ps.correct[correct] = true
}

// AddN records n observations of mistaken -> correct at once (n <= 0 is
// treated as one); used when restoring a pair set from a serialized
// artifact.
func (ps *PairSet) AddN(mistaken, correct string, n int) {
	if mistaken == "" || correct == "" || mistaken == correct {
		return
	}
	if n <= 0 {
		n = 1
	}
	ps.counts[[2]string{mistaken, correct}] += n
	ps.correct[correct] = true
}

// Contains reports whether ⟨mistaken, correct⟩ was mined.
func (ps *PairSet) Contains(mistaken, correct string) bool {
	return ps.counts[[2]string{mistaken, correct}] > 0
}

// Count returns the observation count for a pair.
func (ps *PairSet) Count(mistaken, correct string) int {
	return ps.counts[[2]string{mistaken, correct}]
}

// IsCorrectWord reports whether w appears as the correct side of any pair;
// name paths ending in such words become deduction candidates for
// confusing-word patterns.
func (ps *PairSet) IsCorrectWord(w string) bool { return ps.correct[w] }

// Len returns the number of distinct pairs.
func (ps *PairSet) Len() int { return len(ps.counts) }

// Pairs returns all pairs sorted by descending count, then lexicographic.
func (ps *PairSet) Pairs() [][2]string {
	out := make([][2]string, 0, len(ps.counts))
	for p := range ps.counts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := ps.counts[out[i]], ps.counts[out[j]]
		if ci != cj {
			return ci > cj
		}
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Prune returns a new set keeping only pairs observed at least minCount
// times.
func (ps *PairSet) Prune(minCount int) *PairSet {
	out := NewPairSet()
	for p, c := range ps.counts {
		if c >= minCount {
			out.counts[p] = c
			out.correct[p[1]] = true
		}
	}
	return out
}

// MinePairs extracts confusing word pairs from a set of commits: the
// before/after ASTs are diff-matched, and every aligned identifier rename
// whose subtoken sequences differ in exactly one position contributes that
// subtoken pair.
func MinePairs(commits []Commit) *PairSet {
	ps := NewPairSet()
	for _, c := range commits {
		for _, r := range treediff.Diff(c.Before, c.After) {
			w1, w2, ok := singleSubtokenDiff(r.Before, r.After)
			if ok {
				ps.Add(w1, w2)
			}
		}
	}
	return ps
}

// singleSubtokenDiff splits the two names and reports the single differing
// subtoken pair, or ok=false when the names differ in zero or more than
// one position (or have different subtoken counts).
func singleSubtokenDiff(before, after string) (w1, w2 string, ok bool) {
	sa := subtoken.Split(before)
	sb := subtoken.Split(after)
	if len(sa) != len(sb) {
		return "", "", false
	}
	diffs := 0
	for i := range sa {
		if sa[i] != sb[i] {
			diffs++
			w1, w2 = sa[i], sb[i]
		}
	}
	if diffs != 1 {
		return "", "", false
	}
	return w1, w2, true
}
