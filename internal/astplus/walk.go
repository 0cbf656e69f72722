package astplus

import (
	"namer/internal/ast"
	"namer/internal/namepath"
)

// Walker emits the name paths of statements straight from their
// statement ASTs. It walks the tree once, keeping the root-to-node
// prefix of the AST+ on a namepath.Builder: a NumArgs(k) step above each
// node rule 2 wraps, and NumST(k) and origin steps above each subtoken,
// so each path is emitted at its leaf and no AST+ node is built. A
// Walker reuses its scratch from one statement to the next and is not
// safe for concurrent use.
type Walker struct {
	origin OriginFunc
	b      namepath.Builder
	subs   []string // scratch for leaf
}

// NewWalker returns a Walker that labels identifiers with origin, which
// may be nil, as in Transform.
func NewWalker(origin OriginFunc) *Walker {
	return &Walker{origin: origin}
}

// Paths returns the first limit name paths of stmt (limit <= 0: all of
// them), equal to namepath.Extract(Transform(stmt, origin), limit).
func (w *Walker) Paths(stmt *ast.Statement, limit int) []namepath.Path {
	w.b.Reset(limit)
	w.node(statementRoot(stmt))
	return w.b.Paths()
}

func (w *Walker) node(n *ast.Node) {
	if n.IsTerminal() {
		w.terminal(n)
		return
	}
	k, wrapped := numArgs(n)
	if wrapped {
		w.b.Push(kLabel(numArgsLabels, "NumArgs", k), 0)
	}
	for i, c := range n.Children {
		if w.b.Full() {
			break
		}
		w.b.Push(n.Value, i)
		w.node(c)
		w.b.Pop()
	}
	if wrapped {
		w.b.Pop()
	}
}

func (w *Walker) terminal(n *ast.Node) {
	subs, origin, ok := leaf(w.subs[:0], n, w.origin)
	if !ok {
		return
	}
	w.subs = subs
	numST := kLabel(numSTLabels, "NumST", len(subs))
	for i, s := range subs {
		w.b.Push(numST, i)
		if origin != "" {
			w.b.Push(origin, 0)
			w.b.Emit(s)
			w.b.Pop()
		} else {
			w.b.Emit(s)
		}
		w.b.Pop()
	}
}
