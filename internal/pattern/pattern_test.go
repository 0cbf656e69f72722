package pattern

import (
	"testing"

	"namer/internal/namepath"
)

// Paths for the Fig. 2(e) confusing-word pattern.
func fig2Paths() (cond []namepath.Path, deduct namepath.Path, stmt []namepath.Path) {
	mk := func(s string) namepath.Path {
		p, ok := namepath.ParsePath(s)
		if !ok {
			panic("bad path " + s)
		}
		return p
	}
	cond = []namepath.Path{
		mk("NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self"),
		mk("NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 TestCase 0 assert"),
		mk("NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM"),
	}
	deduct = mk("NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 Equal")
	stmt = []namepath.Path{
		mk("NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self"),
		mk("NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 TestCase 0 assert"),
		mk("NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 True"),
		mk("NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM"),
	}
	return cond, deduct, stmt
}

func TestFigure2PatternViolation(t *testing.T) {
	cond, deduct, stmt := fig2Paths()
	p := &Pattern{Type: ConfusingWord, Condition: cond, Deduction: []namepath.Path{deduct}}
	if !p.Valid() {
		t.Fatal("pattern should be valid")
	}
	if !p.Matches(stmt) {
		t.Fatal("statement should match the pattern")
	}
	if p.Satisfied(stmt) {
		t.Fatal("statement should not satisfy the pattern")
	}
	if !p.Violated(stmt) {
		t.Fatal("statement should violate the pattern")
	}
	v, ok := p.Explain(stmt)
	if !ok {
		t.Fatal("Explain should produce a violation")
	}
	if v.Original != "True" || v.Suggested != "Equal" {
		t.Errorf("fix = %s -> %s, want True -> Equal", v.Original, v.Suggested)
	}
}

func TestFigure2PatternSatisfaction(t *testing.T) {
	cond, deduct, stmt := fig2Paths()
	p := &Pattern{Type: ConfusingWord, Condition: cond, Deduction: []namepath.Path{deduct}}
	// Fix the statement: True -> Equal.
	fixed := make([]namepath.Path, len(stmt))
	copy(fixed, stmt)
	fixed[2] = fixed[2].WithEnd("Equal")
	if !p.Satisfied(fixed) {
		t.Error("fixed statement should satisfy the pattern")
	}
	if p.Violated(fixed) {
		t.Error("fixed statement should not violate the pattern")
	}
}

func TestNoMatchWhenConditionMissing(t *testing.T) {
	cond, deduct, stmt := fig2Paths()
	p := &Pattern{Type: ConfusingWord, Condition: cond, Deduction: []namepath.Path{deduct}}
	// Remove the NUM argument path: condition no longer matches.
	short := stmt[:3]
	if p.Matches(short) {
		t.Error("pattern should not match without the NUM path")
	}
	if p.Violated(short) {
		t.Error("no match implies no violation")
	}
}

func TestConsistencyPattern(t *testing.T) {
	mk := func(s string) namepath.Path {
		p, _ := namepath.ParsePath(s)
		return p
	}
	// Example 3.8: self.<name1> = <name2> requires name1 == name2.
	p := &Pattern{
		Type: Consistency,
		Condition: []namepath.Path{
			mk("Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 self"),
		},
		Deduction: []namepath.Path{
			mk("Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 ϵ"),
			mk("Assign 1 NameLoad 0 NumST(1) 0 ϵ"),
		},
	}
	if !p.Valid() {
		t.Fatal("consistency pattern should be valid")
	}
	good := []namepath.Path{
		mk("Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 self"),
		mk("Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 name"),
		mk("Assign 1 NameLoad 0 NumST(1) 0 name"),
	}
	bad := []namepath.Path{
		mk("Assign 0 AttributeStore 0 NameLoad 0 NumST(1) 0 self"),
		mk("Assign 0 AttributeStore 1 Attr 0 NumST(1) 0 help"),
		mk("Assign 1 NameLoad 0 NumST(1) 0 docstring"),
	}
	if !p.Satisfied(good) {
		t.Error("self.name = name should satisfy")
	}
	if !p.Violated(bad) {
		t.Error("self.help = docstring should violate")
	}
	v, ok := p.Explain(bad)
	if !ok {
		t.Fatal("Explain failed")
	}
	if v.Original == v.Suggested {
		t.Error("suggestion must differ from the original")
	}
	// One of the two directions: help->docstring or docstring->help.
	pair := v.Original + "->" + v.Suggested
	if pair != "docstring->help" && pair != "help->docstring" {
		t.Errorf("unexpected fix %s", pair)
	}
}

func TestValidRejectsMalformed(t *testing.T) {
	mk := func(s string) namepath.Path {
		p, _ := namepath.ParsePath(s)
		return p
	}
	concrete := mk("Assign 0 NameStore 0 NumST(1) 0 x")
	symbolic := concrete.WithEnd(namepath.Epsilon)
	cases := []*Pattern{
		{Type: Consistency, Deduction: []namepath.Path{symbolic}},             // 1 deduction
		{Type: Consistency, Deduction: []namepath.Path{symbolic, concrete}},   // concrete end
		{Type: ConfusingWord, Deduction: []namepath.Path{symbolic}},           // symbolic end
		{Type: ConfusingWord, Deduction: []namepath.Path{concrete, concrete}}, // 2 deductions
	}
	for i, p := range cases {
		if p.Valid() {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestPatternKeyStable(t *testing.T) {
	cond, deduct, _ := fig2Paths()
	p1 := &Pattern{Type: ConfusingWord, Condition: cond, Deduction: []namepath.Path{deduct}}
	// Same pattern with condition order shuffled.
	shuffled := []namepath.Path{cond[2], cond[0], cond[1]}
	p2 := &Pattern{Type: ConfusingWord, Condition: shuffled, Deduction: []namepath.Path{deduct}}
	if p1.Key() != p2.Key() {
		t.Error("Key must be order-insensitive for conditions")
	}
	p3 := &Pattern{Type: Consistency, Condition: cond, Deduction: []namepath.Path{deduct}}
	if p1.Key() == p3.Key() {
		t.Error("Key must include the type")
	}
}

func TestMatchRequiresDeductionPrefix(t *testing.T) {
	cond, deduct, stmt := fig2Paths()
	p := &Pattern{Type: ConfusingWord, Condition: cond[:1], Deduction: []namepath.Path{deduct}}
	// Statement without any path matching the deduction prefix.
	noDeduct := []namepath.Path{stmt[0], stmt[1], stmt[3]}
	if p.Matches(noDeduct) {
		t.Error("match requires a path with the deduction's prefix")
	}
}

func TestPatternString(t *testing.T) {
	cond, deduct, _ := fig2Paths()
	p := &Pattern{Type: ConfusingWord, Condition: cond, Deduction: []namepath.Path{deduct}}
	s := p.String()
	if len(s) == 0 || s[:10] != "Condition:" {
		t.Errorf("String() = %q", s)
	}
}
