package pattern

import "namer/internal/namepath"

// Statement is a statement's name paths as mining and matching over the
// whole corpus see them. It answers Matches/Satisfied/Violated/Explain
// (and Check, all of them at once) by scanning its paths (at most
// MaxPathsPerStatement of them) and comparing memoized keys, which for
// so few paths is cheaper than building an index. Paths from a
// namepath.Builder (astplus.Walker, namepath.Extract),
// namepath.ParsePath and knowledge decoding are memoized; other paths
// give the same answers but re-encode their keys on every comparison.
type Statement struct {
	Paths []namepath.Path
}

// NewStatement wraps a statement's (concrete) name paths.
func NewStatement(paths []namepath.Path) *Statement {
	return &Statement{Paths: paths}
}

// hasPrefix reports whether some path has the prefix encoded by pk.
func (s *Statement) hasPrefix(pk string) bool {
	for _, x := range s.Paths {
		if x.PrefixKey() == pk {
			return true
		}
	}
	return false
}

// hasPath reports whether some path has the full key k.
func (s *Statement) hasPath(k string) bool {
	for _, x := range s.Paths {
		if x.Key() == k {
			return true
		}
	}
	return false
}

// Matches mirrors Pattern.Matches.
func (s *Statement) Matches(p *Pattern) bool {
	for _, c := range p.Condition {
		if c.Symbolic() {
			if !s.hasPrefix(c.PrefixKey()) {
				return false
			}
		} else if !s.hasPath(c.Key()) {
			return false
		}
	}
	for _, d := range p.Deduction {
		if !s.hasPrefix(d.PrefixKey()) {
			return false
		}
	}
	return true
}

// Check answers Matches, Satisfied and Explain at once, with one scan
// for the precondition and at most one for the offender: matched is
// Matches(p), satisfied is Satisfied(p), and v, violated are Explain(p).
func (s *Statement) Check(p *Pattern) (matched, satisfied bool, v Violation, violated bool) {
	if !s.Matches(p) {
		return false, false, Violation{}, false
	}
	v, violated = s.offender(p)
	return true, !violated && (p.Type == Consistency || p.Type == ConfusingWord), v, violated
}

// Satisfied mirrors Pattern.Satisfied.
func (s *Statement) Satisfied(p *Pattern) bool {
	_, satisfied, _, _ := s.Check(p)
	return satisfied
}

// Violated mirrors Pattern.Violated.
func (s *Statement) Violated(p *Pattern) bool {
	matched, satisfied, _, _ := s.Check(p)
	return matched && !satisfied
}

// Explain mirrors Pattern.Explain.
func (s *Statement) Explain(p *Pattern) (Violation, bool) {
	_, _, v, violated := s.Check(p)
	return v, violated
}

// offender finds, for a statement that matches p, the first violation
// in the order Pattern.Explain visits the paths, or ok=false when there
// is none (always, for a pattern of neither type).
func (s *Statement) offender(p *Pattern) (Violation, bool) {
	switch p.Type {
	case Consistency:
		pk1, pk2 := p.Deduction[0].PrefixKey(), p.Deduction[1].PrefixKey()
		for _, a1 := range s.Paths {
			if a1.PrefixKey() != pk1 {
				continue
			}
			for _, a2 := range s.Paths {
				if a2.PrefixKey() == pk2 && a1.End != a2.End {
					return Violation{Pattern: p, Path: a2, Original: a2.End, Suggested: a1.End}, true
				}
			}
		}
	case ConfusingWord:
		d := p.Deduction[0]
		pk := d.PrefixKey()
		for _, x := range s.Paths {
			if x.PrefixKey() == pk && x.End != d.End {
				return Violation{Pattern: p, Path: x, Original: x.End, Suggested: d.End}, true
			}
		}
	}
	return Violation{}, false
}
