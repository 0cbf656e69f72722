// Package astplus implements the AST transformation of §3.1: starting from
// a parsed statement AST it (1) abstracts literals to NUM/STR/BOOL tokens,
// (2) inserts NumArgs(k) nodes above calls and function definitions, (3)
// splits identifier terminals into subtokens under NumST(k) nodes, and (4)
// inserts origin nodes computed by the points-to and dataflow analyses
// (package pointsto) as parents of the affected subtokens. The result is
// the transformed AST (AST+) of Fig. 2(c), from which name paths are
// extracted.
package astplus

import (
	"strconv"

	"namer/internal/ast"
	"namer/internal/subtoken"
)

// OriginFunc reports the origin label for a terminal node of the original
// file AST, as computed by the points-to analysis. A nil OriginFunc
// disables rule 4 (the "w/o A" ablation of Tables 2 and 5).
type OriginFunc func(orig *ast.Node) (string, bool)

// Transform produces the AST+ for a projected statement. The input
// statement is not mutated. When origin is non-nil, it is consulted for
// every identifier terminal, which ast.Statements shares with the file
// AST.
func Transform(stmt *ast.Statement, origin OriginFunc) *ast.Node {
	root := stmt.Root
	// The paper draws statement trees rooted at the expression: an
	// ExprStmt wrapper with a single child is elided (Fig. 2(b) roots the
	// tree at Call).
	if root.Kind == ast.ExprStmt && len(root.Children) == 1 {
		root = root.Children[0]
	}
	t := transformer{origin: origin}
	return t.node(root)
}

type transformer struct {
	origin OriginFunc
}

func (t *transformer) originOf(n *ast.Node) string {
	if t.origin == nil {
		return ""
	}
	o, _ := t.origin(n)
	return o
}

func (t *transformer) node(n *ast.Node) *ast.Node {
	if n.IsTerminal() {
		return t.terminal(n)
	}
	out := &ast.Node{Kind: n.Kind, Value: n.Value, Line: n.Line,
		Children: make([]*ast.Node, len(n.Children))}
	for i, c := range n.Children {
		out.Children[i] = t.node(c)
	}
	// Rule 2: NumArgs(k) above calls and function definitions.
	switch n.Kind {
	case ast.Call:
		return wrapNumArgs(out, max(len(n.Children)-1, 0))
	case ast.New:
		k := 0
		for _, c := range n.Children[1:] {
			if c.Kind != ast.Body {
				k++
			}
		}
		return wrapNumArgs(out, k)
	case ast.FunctionDef, ast.CtorDef, ast.Lambda:
		k := 0
		if params := findParams(n); params != nil {
			k = len(params.Children)
		}
		return wrapNumArgs(out, k)
	}
	return out
}

// numArgsLabels and numSTLabels hold the NumArgs(k)/NumST(k) labels for
// the small k nearly every call and identifier has.
var numArgsLabels, numSTLabels = labels("NumArgs"), labels("NumST")

func labels(name string) []string {
	out := make([]string, 64)
	for k := range out {
		out[k] = kLabel(nil, name, k)
	}
	return out
}

// kLabel returns name(k), from table when it covers k.
func kLabel(table []string, name string, k int) string {
	if k < len(table) {
		return table[k]
	}
	return name + "(" + strconv.Itoa(k) + ")"
}

func wrapNumArgs(n *ast.Node, k int) *ast.Node {
	return &ast.Node{Kind: ast.NumArgs, Value: kLabel(numArgsLabels, "NumArgs", k), Line: n.Line,
		Children: []*ast.Node{n}}
}

func findParams(n *ast.Node) *ast.Node {
	for _, c := range n.Children {
		if c.Kind == ast.Params {
			return c
		}
	}
	return nil
}

func (t *transformer) terminal(n *ast.Node) *ast.Node {
	switch n.Kind {
	case ast.NumLit:
		return wrapNumST([]string{"NUM"}, "", n.Line)
	case ast.StrLit:
		return wrapNumST([]string{"STR"}, "", n.Line)
	case ast.BoolLit:
		return wrapNumST([]string{"BOOL"}, "", n.Line)
	case ast.NullLit:
		return wrapNumST([]string{"NULL"}, "", n.Line)
	case ast.Ident:
		subs := subtoken.Split(n.Value)
		if len(subs) == 0 {
			subs = []string{n.Value}
		}
		return wrapNumST(subs, t.originOf(n), n.Line)
	default:
		// Operators and other token leaves stay as-is.
		return &ast.Node{Kind: n.Kind, Value: n.Value, Line: n.Line}
	}
}

// wrapNumST builds NumST(k) -> [origin ->] subtoken leaves. The group's
// nodes, and the child lists of its origin nodes, are each allocated in
// one slab.
func wrapNumST(subs []string, origin string, line int) *ast.Node {
	k := len(subs)
	perSub := 1
	if origin != "" {
		perSub = 2
	}
	nodes := make([]ast.Node, 1+perSub*k)
	kids := make([]*ast.Node, perSub*k)
	w := &nodes[0]
	*w = ast.Node{Kind: ast.NumST, Value: kLabel(numSTLabels, "NumST", k), Line: line, Children: kids[:k:k]}
	for i, s := range subs {
		leaf := &nodes[1+i]
		*leaf = ast.Node{Kind: ast.Subtoken, Value: s, Line: line}
		if origin == "" {
			w.Children[i] = leaf
			continue
		}
		o := &nodes[1+k+i]
		kids[k+i] = leaf
		*o = ast.Node{Kind: ast.Origin, Value: origin, Line: line, Children: kids[k+i : k+i+1 : k+i+1]}
		w.Children[i] = o
	}
	return w
}
