// Package pattern implements name patterns (Definitions 3.6–3.9): rules of
// the form condition ⇒ deduction over name paths that capture common naming
// idioms. Two pattern types are supported, as in the paper: consistency
// patterns (two symbolic deduction paths whose end subtokens must agree)
// and confusing-word patterns (a single concrete deduction path whose end
// must be the correct word of a mined confusing word pair).
package pattern

import (
	"fmt"
	"sort"
	"strings"

	"namer/internal/namepath"
)

// Type discriminates the two pattern kinds of §3.2.
type Type uint8

// Pattern types.
const (
	Consistency Type = iota
	ConfusingWord
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Consistency:
		return "consistency"
	case ConfusingWord:
		return "confusing-word"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Pattern is a name pattern p = (C, D).
type Pattern struct {
	Type      Type
	Condition []namepath.Path
	Deduction []namepath.Path

	// Support statistics filled by the miner: how many statements in the
	// mining dataset matched and satisfied the pattern, and the raw
	// FP-tree count. These back features 6, 9 and 12 of Table 1.
	Count         int
	MatchCount    int
	SatisfyCount  int
	ViolationHits int

	// key caches the canonical identity string. It is filled lazily by
	// Key(); concurrent pipeline stages warm it from a single goroutine
	// first (mining.NewIndex does this, for detection and for
	// PruneUncommon, which prunes through the index), after which reads
	// are race-free.
	key string
}

// Key returns a canonical identity string for the pattern. The first call
// computes and caches it; call Key once from a single goroutine before
// sharing the pattern across workers.
func (p *Pattern) Key() string {
	if p.key == "" {
		p.key = p.computeKey()
	}
	return p.key
}

func (p *Pattern) computeKey() string {
	var parts []string
	for _, c := range p.Condition {
		parts = append(parts, "C:"+c.Key())
	}
	sort.Strings(parts)
	var dparts []string
	for _, d := range p.Deduction {
		dparts = append(dparts, "D:"+d.Key())
	}
	sort.Strings(dparts)
	return p.Type.String() + "|" + strings.Join(append(parts, dparts...), "|")
}

// String renders the pattern in the paper's Condition/Deduction layout.
func (p *Pattern) String() string {
	var b strings.Builder
	b.WriteString("Condition:\n")
	for _, c := range p.Condition {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	b.WriteString("Deduction:\n")
	for _, d := range p.Deduction {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// Valid reports whether the pattern is well-formed for its type.
func (p *Pattern) Valid() bool {
	switch p.Type {
	case Consistency:
		if len(p.Deduction) != 2 {
			return false
		}
		return p.Deduction[0].Symbolic() && p.Deduction[1].Symbolic()
	case ConfusingWord:
		return len(p.Deduction) == 1 && !p.Deduction[0].Symbolic()
	}
	return false
}

// Matches implements the match relation of Definition 3.6: every condition
// path equals (=) some statement path, and every deduction path's prefix
// appears (~) among the statement paths.
func (p *Pattern) Matches(a []namepath.Path) bool {
	for _, c := range p.Condition {
		found := false
		for _, x := range a {
			if c.Eq(x) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for _, d := range p.Deduction {
		found := false
		for _, x := range a {
			if d.Same(x) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Satisfied implements the satisfaction relations of Definitions 3.7 and
// 3.9 for the two pattern types.
func (p *Pattern) Satisfied(a []namepath.Path) bool {
	if !p.Matches(a) {
		return false
	}
	switch p.Type {
	case Consistency:
		d1, d2 := p.Deduction[0], p.Deduction[1]
		for _, a1 := range a {
			if !d1.Same(a1) {
				continue
			}
			for _, a2 := range a {
				if d2.Same(a2) && a1.End != a2.End {
					return false
				}
			}
		}
		return true
	case ConfusingWord:
		d := p.Deduction[0]
		for _, x := range a {
			if d.Same(x) && x.End != d.End {
				return false
			}
		}
		return true
	}
	return false
}

// Violated reports whether the statement matches but does not satisfy the
// pattern (Definitions 3.7 and 3.9).
func (p *Pattern) Violated(a []namepath.Path) bool {
	return p.Matches(a) && !p.Satisfied(a)
}

// Violation describes one violated pattern occurrence: the offending path,
// the original end subtoken, and the suggested replacement that would make
// the statement satisfy the pattern.
type Violation struct {
	Pattern   *Pattern
	Path      namepath.Path
	Original  string
	Suggested string
}

// Explain returns the violation details for a statement that violates p,
// or ok=false if the statement does not violate p. For confusing-word
// patterns the suggestion is the deduction's correct word; for consistency
// patterns the suggestion is the end subtoken of the other deduction path
// (the majority end when several paths share the prefix).
func (p *Pattern) Explain(a []namepath.Path) (Violation, bool) {
	if !p.Violated(a) {
		return Violation{}, false
	}
	switch p.Type {
	case ConfusingWord:
		d := p.Deduction[0]
		for _, x := range a {
			if d.Same(x) && x.End != d.End {
				return Violation{Pattern: p, Path: x, Original: x.End, Suggested: d.End}, true
			}
		}
	case Consistency:
		d1, d2 := p.Deduction[0], p.Deduction[1]
		for _, a1 := range a {
			if !d1.Same(a1) {
				continue
			}
			for _, a2 := range a {
				if d2.Same(a2) && a1.End != a2.End {
					// Report the second path as the offender, suggesting
					// the first path's end (the paper fixes the statement
					// to satisfy the pattern; either direction works, the
					// classifier sees both via its features).
					return Violation{Pattern: p, Path: a2, Original: a2.End, Suggested: a1.End}, true
				}
			}
		}
	}
	return Violation{}, false
}
