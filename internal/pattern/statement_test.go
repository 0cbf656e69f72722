package pattern

import (
	"testing"
	"testing/quick"

	"namer/internal/namepath"
)

// genPaths derives a deterministic small path set from fuzz bytes: five
// bytes a path, prefixes of 1–3 elements over a two-letter alphabet and
// two indices, so distinct paths often share a prefix. Paths with an odd
// first byte are memoized, the others compute their keys on demand.
func genPaths(data []uint8) []namepath.Path {
	var out []namepath.Path
	for i := 0; i+4 < len(data); i += 5 {
		var p namepath.Path
		for j := 0; j < 1+int(data[i]%3); j++ {
			b := data[i+1+j]
			p.Prefix = append(p.Prefix, namepath.Elem{Value: string(rune('A' + b%2)), Index: int(b / 2 % 2)})
		}
		p.End = string(rune('a' + data[i+4]%3))
		if data[i]%2 == 1 {
			p = p.Memoized()
		}
		out = append(out, p)
	}
	return out
}

// pick returns the path at index b of paths, wrapping around.
func pick(paths []namepath.Path, b uint8) namepath.Path {
	return paths[int(b)%len(paths)]
}

// Property, the reference oracle of the map-free Statement: it agrees
// with the naive Pattern methods on Matches, Satisfied, Violated and
// Explain, and Check agrees with all three at once, for both pattern
// types. Conditions are taken from the
// statement (concrete or symbolic) or generated, so both matching and
// non-matching patterns occur; up to three extra statement paths share
// the first deduction prefix, with its end or with others, so both
// satisfaction and the choice of offender are exercised.
func TestStatementAgreesWithPattern(t *testing.T) {
	f := func(stmtData, condData, extraEnds []uint8, d1, d2, dedEnd uint8, consistency bool) bool {
		paths := genPaths(stmtData)
		if len(paths) == 0 {
			return true
		}
		var cond []namepath.Path
		for i, b := range condData {
			if i == 3 {
				break
			}
			switch b % 3 {
			case 0:
				cond = append(cond, pick(paths, b/3))
			case 1:
				cond = append(cond, pick(paths, b/3).WithEnd(namepath.Epsilon))
			default:
				if g := genPaths(condData[i:]); len(g) > 0 {
					cond = append(cond, g[0])
				}
			}
		}
		ded := pick(paths, d1)
		for i, e := range extraEnds {
			if i == int(d1%4) {
				break
			}
			end := ded.End
			if d2%2 == 0 {
				end = string(rune('a' + e%3))
			}
			paths = append(paths, ded.WithEnd(end))
		}
		var p *Pattern
		if consistency {
			p = &Pattern{
				Type:      Consistency,
				Condition: cond,
				Deduction: []namepath.Path{
					ded.WithEnd(namepath.Epsilon),
					pick(paths, d2).WithEnd(namepath.Epsilon),
				},
			}
		} else {
			p = &Pattern{
				Type:      ConfusingWord,
				Condition: cond,
				Deduction: []namepath.Path{ded.WithEnd(string(rune('a' + dedEnd%3)))},
			}
		}
		s := NewStatement(paths)
		if s.Matches(p) != p.Matches(paths) ||
			s.Satisfied(p) != p.Satisfied(paths) ||
			s.Violated(p) != p.Violated(paths) {
			return false
		}
		sameViolation := func(got Violation, gotOK bool, want Violation, wantOK bool) bool {
			return gotOK == wantOK && got.Pattern == want.Pattern &&
				got.Path.Key() == want.Path.Key() &&
				got.Original == want.Original && got.Suggested == want.Suggested
		}
		want, wantOK := p.Explain(paths)
		got, gotOK := s.Explain(p)
		matched, satisfied, checked, checkedOK := s.Check(p)
		return sameViolation(got, gotOK, want, wantOK) &&
			sameViolation(checked, checkedOK, want, wantOK) &&
			matched == p.Matches(paths) && satisfied == p.Satisfied(paths)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestStatementExplainMatchesPattern(t *testing.T) {
	mk := func(s string) namepath.Path {
		p, _ := namepath.ParsePath(s)
		return p
	}
	p := &Pattern{
		Type:      ConfusingWord,
		Condition: []namepath.Path{mk("Call 0 NameLoad 0 NumST(1) 0 self")},
		Deduction: []namepath.Path{mk("Call 1 Attr 0 NumST(1) 0 range")},
	}
	paths := []namepath.Path{
		mk("Call 0 NameLoad 0 NumST(1) 0 self"),
		mk("Call 1 Attr 0 NumST(1) 0 xrange"),
	}
	s := NewStatement(paths)
	v, ok := s.Explain(p)
	if !ok || v.Original != "xrange" || v.Suggested != "range" {
		t.Errorf("Explain = %+v, %v", v, ok)
	}
}
