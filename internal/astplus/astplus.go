// Package astplus implements the AST transformation of §3.1: starting from
// a parsed statement AST it (1) abstracts literals to NUM/STR/BOOL tokens,
// (2) inserts NumArgs(k) nodes above calls and function definitions, (3)
// splits identifier terminals into subtokens under NumST(k) nodes, and (4)
// inserts origin nodes computed by the points-to and dataflow analyses
// (package pointsto) as parents of the affected subtokens. The result is
// the transformed AST (AST+) of Fig. 2(c), from which name paths are
// extracted.
//
// Transform builds the AST+ as the paper defines it; Walker emits the
// name paths namepath.Extract would take from it, in one walk over the
// statement AST that applies the same rewrites and builds no tree.
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
	t := transformer{origin: origin}
	return t.node(statementRoot(stmt))
}

// statementRoot is the node the statement's AST+ is built from. The paper
// draws statement trees rooted at the expression: an ExprStmt wrapper
// with a single child is elided (Fig. 2(b) roots the tree at Call).
func statementRoot(stmt *ast.Statement) *ast.Node {
	root := stmt.Root
	if root.Kind == ast.ExprStmt && len(root.Children) == 1 {
		root = root.Children[0]
	}
	return root
}

// numArgs applies rule 2 to a non-terminal: it reports whether n gets a
// NumArgs(k) parent, and k. Calls count their arguments, New its
// non-Body arguments, and definitions and lambdas their parameters.
// numArgs and leaf are the whole of the four rewrites; Transform and
// Walker both apply them through these two, so they are defined once.
func numArgs(n *ast.Node) (k int, ok bool) {
	switch n.Kind {
	case ast.Call:
		return max(len(n.Children)-1, 0), true
	case ast.New:
		for _, c := range n.Children[1:] {
			if c.Kind != ast.Body {
				k++
			}
		}
		return k, true
	case ast.FunctionDef, ast.CtorDef, ast.Lambda:
		if params := findParams(n); params != nil {
			k = len(params.Children)
		}
		return k, true
	}
	return 0, false
}

// leaf applies rules 1, 3 and 4 to a terminal. It appends the values of
// the subtoken leaves n becomes to subs: NUM/STR/BOOL/NULL for a literal,
// an identifier's subtokens (the whole name when it has none). For an
// identifier it also returns the origin label of rule 4 from origin
// (which may be nil), "" for none. ok is false for a terminal that stays
// as it is, such as an operator.
func leaf(subs []string, n *ast.Node, origin OriginFunc) (_ []string, label string, ok bool) {
	switch n.Kind {
	case ast.NumLit:
		return append(subs, "NUM"), "", true
	case ast.StrLit:
		return append(subs, "STR"), "", true
	case ast.BoolLit:
		return append(subs, "BOOL"), "", true
	case ast.NullLit:
		return append(subs, "NULL"), "", true
	case ast.Ident:
		k := len(subs)
		subs = subtoken.AppendSplit(subs, n.Value)
		if len(subs) == k {
			subs = append(subs, n.Value)
		}
		if origin != nil {
			label, _ = origin(n)
		}
		return subs, label, true
	}
	return subs, "", false
}

type transformer struct {
	origin OriginFunc
	subs   []string // scratch for leaf
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
	if k, ok := numArgs(n); ok {
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
	subs, origin, ok := leaf(t.subs[:0], n, t.origin)
	if !ok {
		// Operators and other token leaves stay as-is.
		return &ast.Node{Kind: n.Kind, Value: n.Value, Line: n.Line}
	}
	t.subs = subs
	return wrapNumST(subs, origin, n.Line)
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
