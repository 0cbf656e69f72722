package namepath

import (
	"testing"
	"testing/quick"

	"namer/internal/ast"
)

func mkPath(end string, elems ...Elem) Path {
	return Path{Prefix: elems, End: end}
}

func TestRelationalOperators(t *testing.T) {
	// Example 3.3 / 3.5 of the paper.
	prefix := []Elem{
		{"NumArgs(2)", 0}, {"Call", 0}, {"AttributeLoad", 1}, {"Attr", 0},
		{"NumST(2)", 1}, {"TestCase", 0},
	}
	np1 := Path{Prefix: prefix, End: "True"}
	np2 := Path{Prefix: prefix, End: "Equal"}
	np3 := Path{Prefix: prefix, End: Epsilon}

	if !np1.Same(np2) {
		t.Error("np1 ~ np2 should hold")
	}
	if np1.Eq(np2) {
		t.Error("np1 = np2 should not hold")
	}
	if !np1.Same(np3) {
		t.Error("np1 ~ np3 should hold")
	}
	if !np1.Eq(np3) {
		t.Error("np1 = np3 should hold (ϵ matches anything)")
	}
	if !np3.Symbolic() || np1.Symbolic() {
		t.Error("Symbolic flags wrong")
	}
}

func TestSameRequiresEqualPrefixes(t *testing.T) {
	a := mkPath("x", Elem{"Assign", 0}, Elem{"NameStore", 0})
	b := mkPath("x", Elem{"Assign", 1}, Elem{"NameStore", 0})
	c := mkPath("x", Elem{"Assign", 0})
	if a.Same(b) {
		t.Error("different indices should break ~")
	}
	if a.Same(c) {
		t.Error("different lengths should break ~")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	p := mkPath("self", Elem{"Call", 0}, Elem{"NameLoad", 0}, Elem{"NumST(1)", 0})
	q, ok := ParsePath(p.String())
	if !ok {
		t.Fatalf("ParsePath(%q) failed", p.String())
	}
	if !q.Eq(p) || q.Key() != p.Key() {
		t.Errorf("round trip: %q vs %q", q.Key(), p.Key())
	}
	// Symbolic round trip.
	s := p.WithEnd(Epsilon)
	q2, ok := ParsePath(s.String())
	if !ok || !q2.Symbolic() {
		t.Error("symbolic round trip failed")
	}
}

func TestExtractOrderAndLimit(t *testing.T) {
	// Tree: Assign(NameStore(NumST(a)), NumST(b, c))
	tree := ast.NewNode(ast.Assign,
		ast.NewNode(ast.NameStore,
			&ast.Node{Kind: ast.NumST, Value: "NumST(1)", Children: []*ast.Node{
				{Kind: ast.Subtoken, Value: "a"},
			}}),
		&ast.Node{Kind: ast.NumST, Value: "NumST(2)", Children: []*ast.Node{
			{Kind: ast.Subtoken, Value: "b"},
			{Kind: ast.Subtoken, Value: "c"},
		}},
	)
	paths := Extract(tree, 0)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	if paths[0].End != "a" || paths[1].End != "b" || paths[2].End != "c" {
		t.Errorf("order: %v %v %v", paths[0].End, paths[1].End, paths[2].End)
	}
	if got := Extract(tree, 2); len(got) != 2 {
		t.Errorf("limit ignored: %d", len(got))
	}
	// Prefixes of distinct leaves are distinct.
	if paths[1].PrefixKey() == paths[2].PrefixKey() {
		t.Error("sibling subtokens must have distinct prefixes (index differs)")
	}
}

func TestExtractSkipsOperators(t *testing.T) {
	tree := ast.NewNode(ast.BinOp,
		&ast.Node{Kind: ast.OpTok, Value: "+"},
		&ast.Node{Kind: ast.NumST, Value: "NumST(1)", Children: []*ast.Node{
			{Kind: ast.Subtoken, Value: "x"},
		}},
		&ast.Node{Kind: ast.NumST, Value: "NumST(1)", Children: []*ast.Node{
			{Kind: ast.Subtoken, Value: "y"},
		}},
	)
	paths := Extract(tree, 0)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 (operator leaf skipped)", len(paths))
	}
}

func TestDedup(t *testing.T) {
	p := mkPath("x", Elem{"Assign", 0})
	q := mkPath("x", Elem{"Assign", 0})
	r := mkPath("y", Elem{"Assign", 0})
	out := Dedup([]Path{p, q, r})
	if len(out) != 2 {
		t.Errorf("Dedup = %d paths, want 2", len(out))
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	p := mkPath("x", Elem{"Assign", 0})
	q := mkPath("y", Elem{"Assign", 0})
	idP := in.Intern(p)
	idQ := in.Intern(q)
	if idP == idQ {
		t.Error("distinct paths must get distinct ids")
	}
	if in.Intern(p) != idP {
		t.Error("interning not idempotent")
	}
	if got := in.Path(idP); got.Key() != p.Key() {
		t.Error("Path round trip failed")
	}
	if _, ok := in.Lookup(mkPath("z", Elem{"Assign", 0})); ok {
		t.Error("Lookup of unknown path should fail")
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
}

// Properties of the relational operators.
func TestOperatorProperties(t *testing.T) {
	gen := func(vals []uint8, end string) Path {
		var p Path
		for i, v := range vals {
			p.Prefix = append(p.Prefix, Elem{Value: string(rune('A' + v%4)), Index: i % 3})
		}
		p.End = end
		return p
	}
	// ~ is an equivalence on prefixes: symmetric.
	sym := func(a, b []uint8, e1, e2 string) bool {
		p, q := gen(a, e1), gen(b, e2)
		return p.Same(q) == q.Same(p)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error("~ symmetry:", err)
	}
	// = implies ~.
	eqImpliesSame := func(a, b []uint8, e1, e2 string) bool {
		p, q := gen(a, e1), gen(b, e2)
		return !p.Eq(q) || p.Same(q)
	}
	if err := quick.Check(eqImpliesSame, nil); err != nil {
		t.Error("= implies ~:", err)
	}
	// Any path = its symbolic version.
	symbolicEq := func(a []uint8, e string) bool {
		p := gen(a, e)
		return p.Eq(p.WithEnd(Epsilon))
	}
	if err := quick.Check(symbolicEq, nil); err != nil {
		t.Error("p = p[ϵ]:", err)
	}
	// Key uniqueness: equal keys iff Eq for concrete paths.
	keyFaithful := func(a, b []uint8, e1, e2 string) bool {
		if e1 == "" || e2 == "" {
			return true
		}
		p, q := gen(a, e1), gen(b, e2)
		return (p.Key() == q.Key()) == (p.Same(q) && p.End == q.End)
	}
	if err := quick.Check(keyFaithful, nil); err != nil {
		t.Error("key faithfulness:", err)
	}
}

// extractReference is the one-walk reference Extract is checked
// against: every path gets a fresh copy of the prefix stack and no memo.
func extractReference(root *ast.Node, limit int) []Path {
	var out []Path
	var prefix []Elem
	var walk func(n *ast.Node)
	walk = func(n *ast.Node) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if n.IsTerminal() {
			if n.Kind == ast.Subtoken {
				out = append(out, Path{Prefix: append([]Elem(nil), prefix...), End: n.Value})
			}
			return
		}
		for i, c := range n.Children {
			prefix = append(prefix, Elem{Value: n.Value, Index: i})
			walk(c)
			prefix = prefix[:len(prefix)-1]
		}
	}
	walk(root)
	return out
}

// genTree builds a small AST+-shaped tree from fuzz bytes: non-terminals
// with up to three children, subtoken leaves (some with an empty value,
// the symbolic-end spelling), and operator leaves that end no path.
func genTree(data []uint8) *ast.Node {
	pos := 0
	next := func() uint8 {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	var build func(depth int) *ast.Node
	build = func(depth int) *ast.Node {
		b := next()
		switch {
		case depth >= 6 || b%4 == 0:
			if b%8 == 4 {
				return &ast.Node{Kind: ast.OpTok, Value: "+"}
			}
			return &ast.Node{Kind: ast.Subtoken, Value: []string{"", "a", "b", "get"}[b/8%4]}
		default:
			n := &ast.Node{Kind: ast.Call, Value: []string{"Call", "NumST(2)", "Attr"}[b/4%3]}
			for i := 0; i < 1+int(b/16%3); i++ {
				n.Children = append(n.Children, build(depth+1))
			}
			return n
		}
	}
	return build(0)
}

// Property: Extract returns the reference's paths, and every path's
// memoized Key/PrefixKey equal the encodings recomputed from an
// un-memoized Path{Prefix, End}, at any limit (<= 0 meaning none) and
// with empty-valued subtokens taking the " ε" key branch.
func TestExtractMatchesReference(t *testing.T) {
	f := func(data []uint8, limit int8) bool {
		root := genTree(data)
		got, want := Extract(root, int(limit%12)), extractReference(root, int(limit%12))
		if len(got) != len(want) {
			return false
		}
		for i, p := range got {
			plain := Path{Prefix: p.Prefix, End: p.End}
			if !p.Same(want[i]) || p.End != want[i].End ||
				p.Key() != want[i].Key() || p.PrefixKey() != want[i].PrefixKey() ||
				p.Key() != plain.Key() || p.PrefixKey() != plain.PrefixKey() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestExtractEpsilonEnd(t *testing.T) {
	tree := ast.NewNode(ast.Assign,
		&ast.Node{Kind: ast.NumST, Value: "NumST(1)", Children: []*ast.Node{
			{Kind: ast.Subtoken, Value: ""},
		}})
	for _, limit := range []int{-1, 0, 1} {
		paths := Extract(tree, limit)
		if len(paths) != 1 {
			t.Fatalf("limit %d: got %d paths, want 1", limit, len(paths))
		}
		p := paths[0]
		if want := "Assign 0 NumST(1) 0 ε"; p.Key() != want {
			t.Errorf("limit %d: Key = %q, want %q", limit, p.Key(), want)
		}
		if plain := (Path{Prefix: p.Prefix, End: p.End}); p.Key() != plain.Key() || p.PrefixKey() != plain.PrefixKey() {
			t.Errorf("limit %d: memo %q/%q, recomputed %q/%q", limit, p.Key(), p.PrefixKey(), plain.Key(), plain.PrefixKey())
		}
	}
}

// tenPathStatement is `self.assertEqual(first_name, last_name, 90, x)`
// as AST+: NumArgs(4) over a Call whose callee and arguments end in ten
// subtokens.
func tenPathStatement() *ast.Node {
	numST := func(subs ...string) *ast.Node {
		n := &ast.Node{Kind: ast.NumST, Value: "NumST(" + string(rune('0'+len(subs))) + ")"}
		for _, s := range subs {
			n.Children = append(n.Children, &ast.Node{Kind: ast.Subtoken, Value: s})
		}
		return n
	}
	call := ast.NewNode(ast.Call,
		ast.NewNode(ast.AttributeLoad,
			ast.NewNode(ast.NameLoad, numST("self")),
			ast.NewNode(ast.Attr, numST("assert", "Equal"))),
		ast.NewNode(ast.NameLoad, numST("first", "name")),
		ast.NewNode(ast.NameLoad, numST("last", "name")),
		ast.NewNode(ast.Num, numST("NUM")),
		ast.NewNode(ast.NameLoad, numST("x", "y")))
	return &ast.Node{Kind: ast.NumArgs, Value: "NumArgs(4)", Children: []*ast.Node{call}}
}

// Appending to one extracted path's Prefix must not write into a
// sibling's: the prefixes share one slab, each capacity-clipped.
func TestExtractPrefixesDoNotAlias(t *testing.T) {
	paths := Extract(tenPathStatement(), 10)
	if len(paths) != 10 {
		t.Fatalf("got %d paths, want 10", len(paths))
	}
	before := make([]string, len(paths))
	for i, p := range paths {
		before[i] = (Path{Prefix: p.Prefix, End: p.End}).Key()
	}
	for i := range paths {
		grown := append(paths[i].Prefix, Elem{Value: "X", Index: 9}, Elem{Value: "Y", Index: 9})
		grown[0] = Elem{Value: "Z", Index: 7}
		for j, p := range paths {
			if got := (Path{Prefix: p.Prefix, End: p.End}).Key(); got != before[j] {
				t.Fatalf("growing path %d changed path %d: %q, was %q", i, j, got, before[j])
			}
		}
	}
}

// Extract allocates once per path (its key string) plus three slabs per
// call; a prefix copy, memo and prefix-key string per path would make
// about five.
func TestExtractAllocsPerPath(t *testing.T) {
	root := tenPathStatement()
	var n int
	allocs := testing.AllocsPerRun(100, func() { n = len(Extract(root, 10)) })
	if n != 10 {
		t.Fatalf("got %d paths, want 10", n)
	}
	if perPath := allocs / float64(n); perPath >= 2 {
		t.Errorf("Extract made %.1f allocations per path, want < 2", perPath)
	}
}
