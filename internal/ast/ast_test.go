package ast

import (
	"strings"
	"testing"
)

// buildAssign constructs `self.assertTrue(x, 90)` roughly as in Fig. 2(b).
func buildCallStmt() *Node {
	return NewNode(ExprStmt,
		NewNode(Call,
			NewNode(AttributeLoad,
				NewNode(NameLoad, NewLeaf(Ident, "self")),
				NewNode(Attr, NewLeaf(Ident, "assertTrue")),
			),
			NewNode(NameLoad, NewLeaf(Ident, "x")),
			NewNode(Num, NewLeaf(NumLit, "90")),
		),
	)
}

func TestNodeBasics(t *testing.T) {
	n := buildCallStmt()
	if n.IsTerminal() {
		t.Fatal("ExprStmt should not be terminal")
	}
	if got := n.CountNodes(); got != 11 {
		t.Errorf("CountNodes = %d, want 11", got)
	}
}

func TestCloneAndEqual(t *testing.T) {
	n := buildCallStmt()
	c := n.Clone()
	if !n.Equal(c) {
		t.Fatal("clone should be Equal to original")
	}
	c.Children[0].Children[1].Children[0].Value = "y"
	if n.Equal(c) {
		t.Fatal("mutated clone should differ")
	}
	if n.Children[0].Children[1].Children[0].Value != "x" {
		t.Fatal("mutating clone changed original (not a deep copy)")
	}
}

func TestFingerprint(t *testing.T) {
	a, b := buildCallStmt(), buildCallStmt()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical trees must have identical fingerprints")
	}
	b.Children[0].Children[2].Children[0].Value = "91"
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different trees must have different fingerprints")
	}
	if !strings.Contains(a.Fingerprint(), "assertTrue") {
		t.Error("fingerprint should embed terminal values")
	}
}

func TestWalkPruning(t *testing.T) {
	n := buildCallStmt()
	var visited []string
	n.Walk(func(x *Node) bool {
		visited = append(visited, x.Value)
		return x.Kind != AttributeLoad // skip below AttributeLoad
	})
	for _, v := range visited {
		if v == "self" || v == "assertTrue" {
			t.Errorf("walk should not have descended into AttributeLoad, saw %q", v)
		}
	}
}

func TestStatementsProjection(t *testing.T) {
	// module: class C: def f(): x = 1; if cond: y = 2
	assign1 := NewNode(Assign, NewNode(NameStore, NewLeaf(Ident, "x")), NewNode(Num, NewLeaf(NumLit, "1")))
	assign2 := NewNode(Assign, NewNode(NameStore, NewLeaf(Ident, "y")), NewNode(Num, NewLeaf(NumLit, "2")))
	ifStmt := NewNode(If, NewNode(NameLoad, NewLeaf(Ident, "cond")), NewNode(Body, assign2))
	fn := NewNode(FunctionDef, NewLeaf(Ident, "f"), NewNode(Params), NewNode(Body, assign1, ifStmt))
	cls := NewNode(ClassDef, NewLeaf(Ident, "C"), NewNode(Bases), NewNode(Body, fn))
	mod := NewNode(Module, cls)

	stmts := Statements(mod)
	// class header, def header, x=1, if header, y=2
	if len(stmts) != 5 {
		for _, s := range stmts {
			t.Log(s.Root.Fingerprint())
		}
		t.Fatalf("got %d statements, want 5", len(stmts))
	}
	if stmts[0].Root.Kind != ClassDef || stmts[1].Root.Kind != FunctionDef {
		t.Errorf("unexpected statement order: %v %v", stmts[0].Root.Kind, stmts[1].Root.Kind)
	}
	// Headers must not contain bodies.
	stmts[1].Root.Walk(func(n *Node) bool {
		if n.Kind == Body {
			t.Error("projected FunctionDef still contains a Body")
		}
		return true
	})
	// Context propagation.
	if stmts[2].EnclosingClass != "C" || stmts[2].EnclosingFunc != "f" {
		t.Errorf("x=1 context = (%q,%q), want (C,f)", stmts[2].EnclosingClass, stmts[2].EnclosingFunc)
	}
	if stmts[4].EnclosingFunc != "f" {
		t.Errorf("y=2 should be inside f, got %q", stmts[4].EnclosingFunc)
	}
}

func TestKindString(t *testing.T) {
	if Call.String() != "Call" || AttributeLoad.String() != "AttributeLoad" {
		t.Error("kind names wrong")
	}
	if NumST.String() != "NumST" || NumArgs.String() != "NumArgs" {
		t.Error("synthetic kind names wrong")
	}
	// Every kind has a name.
	for k := Kind(0); k < kindCount; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestIsStatementKind(t *testing.T) {
	for _, k := range []Kind{Assign, ExprStmt, For, FunctionDef, Return} {
		if !IsStatementKind(k) {
			t.Errorf("%v should be a statement kind", k)
		}
	}
	for _, k := range []Kind{Call, NameLoad, Body, Module, Ident} {
		if IsStatementKind(k) {
			t.Errorf("%v should not be a statement kind", k)
		}
	}
}

func TestDump(t *testing.T) {
	d := buildCallStmt().Dump()
	if !strings.Contains(d, "Call") || !strings.Contains(d, "assertTrue") {
		t.Errorf("dump missing content:\n%s", d)
	}
}

func TestLanguageString(t *testing.T) {
	if Python.String() != "Python" || Java.String() != "Java" {
		t.Error("language names wrong")
	}
}
