package graphs

import (
	"testing"

	"namer/internal/ast"
	"namer/internal/pylang"
)

func parseFn(t *testing.T, src string) *ast.Node {
	t.Helper()
	root, err := pylang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var fn *ast.Node
	root.Walk(func(n *ast.Node) bool {
		if n.Kind == ast.FunctionDef && fn == nil {
			fn = n
		}
		return true
	})
	if fn == nil {
		t.Fatal("no function found")
	}
	return fn
}

const fnSrc = `def f(a, b):
    c = a + b
    d = c * a
    return d
`

func TestBuildBasics(t *testing.T) {
	fn := parseFn(t, fnSrc)
	v := NewVocab()
	g := Build(fn, v)
	if g.N() == 0 {
		t.Fatal("empty graph")
	}
	if len(g.Edges[Child]) == 0 || len(g.Edges[Parent]) == 0 {
		t.Error("missing child/parent edges")
	}
	if len(g.Edges[Child]) != len(g.Edges[Parent]) {
		t.Error("child and parent edge counts should match")
	}
	if len(g.Edges[NextToken]) == 0 {
		t.Error("missing NextToken edges")
	}
	// Variables a, b, c, d all occur.
	names, reps := g.Variables()
	if len(names) != 4 {
		t.Fatalf("variables = %v, want 4", names)
	}
	if len(reps) != len(names) {
		t.Error("reps misaligned")
	}
	// a is used twice (c = a+b, d = c*a): LastUse edge must exist.
	if len(g.Edges[LastUse]) == 0 {
		t.Error("missing LastUse edges")
	}
	if len(g.Edges[LastWrite]) == 0 {
		t.Error("missing LastWrite edges")
	}
	if len(g.Edges[ComputedFrom]) == 0 {
		t.Error("missing ComputedFrom edges")
	}
}

func TestVarUsesExcludeWrites(t *testing.T) {
	fn := parseFn(t, fnSrc)
	g := Build(fn, NewVocab())
	for _, u := range g.VarUses() {
		if g.IsWrite[u] {
			t.Error("VarUses returned a write occurrence")
		}
		if g.VarName[u] == "" {
			t.Error("VarUses returned a non-variable node")
		}
	}
	// Uses: a, b (in c=a+b), c, a (in d=c*a), d (return) = 5.
	if got := len(g.VarUses()); got != 5 {
		t.Errorf("var uses = %d, want 5", got)
	}
}

func TestSelfExcluded(t *testing.T) {
	fn := parseFn(t, "def m(self, x):\n    return self.f(x)\n")
	g := Build(fn, NewVocab())
	for i, name := range g.VarName {
		if name == "self" {
			t.Errorf("self tracked as variable at node %d", i)
		}
	}
}

func TestVocab(t *testing.T) {
	v := NewVocab()
	a := v.ID("alpha")
	if a == 0 {
		t.Error("new word got unk id")
	}
	if v.ID("alpha") != a {
		t.Error("interning not idempotent")
	}
	v.Freeze()
	if v.ID("beta") != 0 {
		t.Error("frozen vocab should map unseen to unk")
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
}

func TestEdgeTypeString(t *testing.T) {
	for e := EdgeType(0); e < NumEdgeTypes; e++ {
		if e.String() == "?" {
			t.Errorf("edge type %d unnamed", e)
		}
	}
}

func TestNodeOfMapping(t *testing.T) {
	fn := parseFn(t, fnSrc)
	g := Build(fn, NewVocab())
	if len(g.NodeOf) != g.N() {
		t.Errorf("NodeOf has %d entries, graph has %d nodes", len(g.NodeOf), g.N())
	}
	if id, ok := g.NodeOf[fn]; !ok || id != 0 {
		t.Error("root should be node 0")
	}
}
