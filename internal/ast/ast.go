// Package ast defines the language-neutral abstract syntax tree shared by
// the Python and Java front ends and by every downstream analysis.
//
// The representation follows Definition 3.1 of the paper: a tree of nodes,
// each carrying a value. Non-terminal nodes have children; terminal nodes
// carry token text (identifier names, literals, operators). Both front ends
// normalize their language constructs onto the same kind vocabulary (a call
// is a Call whether it is written in Python or Java), which lets the name
// path and name pattern machinery work unchanged across languages.
package ast

import (
	"fmt"
	"strings"
)

// Kind classifies a node. Non-terminal kinds mirror the Python AST names
// used in the paper (Call, AttributeLoad, NameLoad, ...); Java constructs
// are mapped onto the same vocabulary by the Java front end.
type Kind uint8

// Node kinds. Terminal kinds come first, then expression and statement
// kinds shared by both languages, then structural kinds.
const (
	// Terminal kinds: Value holds the token text.
	Ident Kind = iota // identifier leaf
	NumLit
	StrLit
	BoolLit
	NullLit
	OpTok // operator or keyword token leaf (e.g. "+", "==", "in")

	// Synthetic terminal kinds introduced by the AST+ transformation.
	Subtoken // one subtoken of a split identifier
	Origin   // origin label inserted by the points-to analysis

	// Expression kinds.
	Call
	Keyword // keyword argument: name = value
	StarArg
	DoubleStarArg
	AttributeLoad
	AttributeStore
	Attr
	NameLoad
	NameStore
	NameParam
	SubscriptLoad
	SubscriptStore
	Index
	SliceRange
	BinOp
	UnaryOp
	BoolOp
	Compare
	Ternary
	Lambda
	ListLit
	TupleLit
	DictLit
	SetLit
	DictItem
	Comprehension
	CompFor
	CompIf
	FString
	New  // Java object creation
	Cast // Java cast
	InstanceOf
	ArrayLit
	ArrayType
	TypeRef // type reference; child is the type name leaf (possibly dotted)
	Num     // literal wrapper nodes as drawn in Fig. 2(b)
	Str
	Bool
	Null

	// Statement kinds.
	Assign
	AugAssign
	AnnAssign
	ExprStmt
	Return
	Delete
	Pass
	Break
	Continue
	Raise
	Import
	ImportFrom
	ImportAlias
	Global
	Nonlocal
	AssertStmt
	If
	Elif
	Else
	For
	ForEach
	While
	DoWhile
	Try
	ExceptHandler
	Finally
	With
	WithItem
	Switch
	CaseClause
	Throw
	LocalVarDecl
	FieldDecl
	SyncBlock
	LabeledStmt
	EmptyStmt
	Yield

	// Structural kinds.
	Module
	PackageDecl
	ClassDef
	InterfaceDef
	EnumDef
	Bases
	Decorator
	Annotation
	FunctionDef
	CtorDef
	Params
	Param
	DefaultParam
	VarArgParam
	KwArgParam
	Body
	Block
	Modifiers
	Modifier
	TypeParams

	// AST+ synthetic non-terminal kinds.
	NumArgs // NumArgs(k) wrapper above Call / FunctionDef
	NumST   // NumST(k) wrapper above split subtokens

	kindCount
)

var kindNames = [...]string{
	Ident:          "Ident",
	NumLit:         "NumLit",
	StrLit:         "StrLit",
	BoolLit:        "BoolLit",
	NullLit:        "NullLit",
	OpTok:          "Op",
	Subtoken:       "Subtoken",
	Origin:         "Origin",
	Call:           "Call",
	Keyword:        "Keyword",
	StarArg:        "StarArg",
	DoubleStarArg:  "DoubleStarArg",
	AttributeLoad:  "AttributeLoad",
	AttributeStore: "AttributeStore",
	Attr:           "Attr",
	NameLoad:       "NameLoad",
	NameStore:      "NameStore",
	NameParam:      "NameParam",
	SubscriptLoad:  "SubscriptLoad",
	SubscriptStore: "SubscriptStore",
	Index:          "Index",
	SliceRange:     "Slice",
	BinOp:          "BinOp",
	UnaryOp:        "UnaryOp",
	BoolOp:         "BoolOp",
	Compare:        "Compare",
	Ternary:        "Ternary",
	Lambda:         "Lambda",
	ListLit:        "List",
	TupleLit:       "Tuple",
	DictLit:        "Dict",
	SetLit:         "Set",
	DictItem:       "DictItem",
	Comprehension:  "Comprehension",
	CompFor:        "CompFor",
	CompIf:         "CompIf",
	FString:        "FString",
	New:            "New",
	Cast:           "Cast",
	InstanceOf:     "InstanceOf",
	ArrayLit:       "ArrayLit",
	ArrayType:      "ArrayType",
	TypeRef:        "TypeRef",
	Num:            "Num",
	Str:            "Str",
	Bool:           "Bool",
	Null:           "Null",
	Assign:         "Assign",
	AugAssign:      "AugAssign",
	AnnAssign:      "AnnAssign",
	ExprStmt:       "ExprStmt",
	Return:         "Return",
	Delete:         "Delete",
	Pass:           "Pass",
	Break:          "Break",
	Continue:       "Continue",
	Raise:          "Raise",
	Import:         "Import",
	ImportFrom:     "ImportFrom",
	ImportAlias:    "ImportAlias",
	Global:         "Global",
	Nonlocal:       "Nonlocal",
	AssertStmt:     "Assert",
	If:             "If",
	Elif:           "Elif",
	Else:           "Else",
	For:            "For",
	ForEach:        "ForEach",
	While:          "While",
	DoWhile:        "DoWhile",
	Try:            "Try",
	ExceptHandler:  "ExceptHandler",
	Finally:        "Finally",
	With:           "With",
	WithItem:       "WithItem",
	Switch:         "Switch",
	CaseClause:     "Case",
	Throw:          "Throw",
	LocalVarDecl:   "LocalVarDecl",
	FieldDecl:      "FieldDecl",
	SyncBlock:      "Synchronized",
	LabeledStmt:    "Labeled",
	EmptyStmt:      "Empty",
	Yield:          "Yield",
	Module:         "Module",
	PackageDecl:    "Package",
	ClassDef:       "ClassDef",
	InterfaceDef:   "InterfaceDef",
	EnumDef:        "EnumDef",
	Bases:          "Bases",
	Decorator:      "Decorator",
	Annotation:     "Annotation",
	FunctionDef:    "FunctionDef",
	CtorDef:        "CtorDef",
	Params:         "Params",
	Param:          "Param",
	DefaultParam:   "DefaultParam",
	VarArgParam:    "VarArgParam",
	KwArgParam:     "KwArgParam",
	Body:           "Body",
	Block:          "Block",
	Modifiers:      "Modifiers",
	Modifier:       "Modifier",
	TypeParams:     "TypeParams",
	NumArgs:        "NumArgs",
	NumST:          "NumST",
}

// String returns the canonical name of the kind, which doubles as the node
// value for non-terminal nodes that carry no explicit value.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is a single AST node. Terminal nodes have no children and carry the
// token text in Value. Non-terminal nodes carry their kind name in Value
// unless the transformation pipeline replaced it (NumArgs(2), NumST(3),
// origin class names, ...).
type Node struct {
	Kind     Kind
	Value    string
	Line     int
	Children []*Node
}

// NewNode returns a non-terminal node whose value is the kind name.
func NewNode(k Kind, children ...*Node) *Node {
	return &Node{Kind: k, Value: k.String(), Children: children}
}

// NewLeaf returns a terminal node carrying token text.
func NewLeaf(k Kind, value string) *Node {
	return &Node{Kind: k, Value: value}
}

// IsTerminal reports whether the node has no children.
func (n *Node) IsTerminal() bool { return len(n.Children) == 0 }

// Add appends children and returns the node for chaining.
func (n *Node) Add(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Clone returns a deep copy of the subtree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Value: n.Value, Line: n.Line}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// Walk calls fn for every node in the subtree in pre-order. If fn returns
// false the children of the current node are skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Equal reports whether two subtrees are structurally identical (kind,
// value, and children; line numbers are ignored).
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.Kind != m.Kind || n.Value != m.Value || len(n.Children) != len(m.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(m.Children[i]) {
			return false
		}
	}
	return true
}

// CountNodes returns the number of nodes in the subtree.
func (n *Node) CountNodes() int {
	if n == nil {
		return 0
	}
	total := 1
	for _, c := range n.Children {
		total += c.CountNodes()
	}
	return total
}

// Fingerprint returns a canonical string encoding of the subtree, suitable
// as a map key for statement-identity counting (features 2–3 of Table 1).
func (n *Node) Fingerprint() string {
	var b strings.Builder
	b.Grow(n.fingerprintLen())
	n.fingerprint(&b)
	return b.String()
}

// fingerprintLen is the length of n's fingerprint, so Fingerprint
// allocates its string once.
func (n *Node) fingerprintLen() int {
	l := 2 + len(n.Value) + len(n.Children)
	for _, c := range n.Children {
		l += c.fingerprintLen()
	}
	return l
}

func (n *Node) fingerprint(b *strings.Builder) {
	b.WriteByte('(')
	b.WriteString(n.Value)
	for _, c := range n.Children {
		b.WriteByte(' ')
		c.fingerprint(b)
	}
	b.WriteByte(')')
}

// String renders the subtree as an s-expression, mainly for tests and
// debugging output.
func (n *Node) String() string { return n.Fingerprint() }

// Dump renders the subtree with indentation, one node per line.
func (n *Node) Dump() string {
	var b strings.Builder
	n.dump(&b, 0)
	return b.String()
}

func (n *Node) dump(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.Value)
	if n.IsTerminal() && n.Value != n.Kind.String() {
		fmt.Fprintf(b, " <%s>", n.Kind)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.dump(b, depth+1)
	}
}

// IsStatementKind reports whether k is a statement-level kind: the unit at
// which Namer extracts statement ASTs, matches name patterns, and reports
// issues.
func IsStatementKind(k Kind) bool {
	switch k {
	case Assign, AugAssign, AnnAssign, ExprStmt, Return, Delete, Raise,
		Throw, AssertStmt, If, Elif, While, DoWhile, For, ForEach, With,
		LocalVarDecl, FieldDecl, ExceptHandler, FunctionDef, CtorDef,
		Switch, Import, ImportFrom:
		return true
	}
	return false
}

// isBodyKind reports whether k is a pure container whose children are
// statements (and which is therefore pruned when projecting statements).
func isBodyKind(k Kind) bool {
	switch k {
	case Body, Block, Else, Finally, Module, ClassDef, InterfaceDef,
		EnumDef, Try, CaseClause, SyncBlock, LabeledStmt:
		return true
	}
	return false
}

// Statement is one projected program statement: the statement AST with
// compound bodies pruned (the `for x in xs` header is a statement; its body
// is a separate sequence of statements), plus the enclosing context needed
// by the analyses.
type Statement struct {
	// Root is the statement header. Only the spine of nodes that lost a
	// pruned child is copied; every other subtree, and so every terminal,
	// is the file AST's own node, so per-node analysis results (origin
	// labels) are looked up on the header's nodes directly. Root is
	// shared with the file AST and must not be mutated.
	Root *Node
	// EnclosingClass and EnclosingFunc name the lexical context ("" if
	// none).
	EnclosingClass string
	EnclosingFunc  string
	Line           int
}

// Statements projects the file AST rooted at root onto its statements, in
// source order. Compound statements contribute their header (with Body
// children removed); their bodies are recursed into. While inside the
// header of an already-projected statement, nested statement-kind nodes
// (e.g. the LocalVarDecl inside a Java `for(int i = 0; ...)`) are not
// projected again; projection resumes once a body container is entered.
func Statements(root *Node) []*Statement {
	var out []*Statement
	var visit func(n *Node, class, fn string, inHeader bool)
	visit = func(n *Node, class, fn string, inHeader bool) {
		for _, c := range n.Children {
			switch {
			case c.Kind == ClassDef || c.Kind == InterfaceDef || c.Kind == EnumDef:
				if !inHeader {
					out = append(out, projectStatement(c, class, fn))
				}
				visit(c, className(c), fn, false)
			case c.Kind == FunctionDef || c.Kind == CtorDef:
				if !inHeader {
					out = append(out, projectStatement(c, class, fn))
				}
				visit(c, class, funcName(c), true)
			case IsStatementKind(c.Kind):
				if !inHeader {
					out = append(out, projectStatement(c, class, fn))
				}
				visit(c, class, fn, true)
			case isBodyKind(c.Kind) || c.Kind == WithItem:
				visit(c, class, fn, false)
			default:
				// Expression-level node: nothing to project here, but body
				// containers can still hide below (anonymous class bodies).
				if !c.IsTerminal() {
					visit(c, class, fn, inHeader)
				}
			}
		}
	}
	visit(&Node{Children: []*Node{root}}, "", "", false)
	return out
}

func projectStatement(n *Node, class, fn string) *Statement {
	return &Statement{
		Root:           pruneBodies(n),
		EnclosingClass: class,
		EnclosingFunc:  fn,
		Line:           n.Line,
	}
}

// isPruned reports whether a child of kind k is left out of a statement
// header: a body container, or a clause (elif, except) that is its own
// statement.
func isPruned(k Kind) bool {
	return isBodyKind(k) || k == Elif || k == ExceptHandler
}

// pruneBodies returns the header of n: n without its pruned children, at
// any depth. A node that keeps all its children, and whose subtrees need
// no pruning, is returned as is; only the spine above a pruned child is
// copied.
func pruneBodies(n *Node) *Node {
	var kept []*Node // nil until some child is dropped or copied
	for i, ch := range n.Children {
		p := ch
		if !isPruned(ch.Kind) {
			p = pruneBodies(ch)
		}
		if kept == nil && p == ch && !isPruned(ch.Kind) {
			continue
		}
		if kept == nil {
			kept = append(make([]*Node, 0, len(n.Children)), n.Children[:i]...)
		}
		if !isPruned(ch.Kind) {
			kept = append(kept, p)
		}
	}
	if kept == nil {
		return n
	}
	return &Node{Kind: n.Kind, Value: n.Value, Line: n.Line, Children: kept}
}

func className(c *Node) string {
	for _, ch := range c.Children {
		if ch.Kind == Ident {
			return ch.Value
		}
	}
	return ""
}

func funcName(c *Node) string {
	for _, ch := range c.Children {
		if ch.Kind == Ident {
			return ch.Value
		}
	}
	return ""
}

// File couples a parsed AST with its provenance inside a corpus; the
// feature extractor uses Repo/Path to compute file- and repository-level
// statistics (features 2–12 of Table 1).
type File struct {
	Repo string
	Path string
	Lang Language
	Root *Node
}

// Language identifies the source language of a file.
type Language uint8

// Supported languages. Go support demonstrates the paper's claim (§5.1)
// that the framework is readily applicable to other languages.
const (
	Python Language = iota
	Java
	Go
)

// String returns the language name.
func (l Language) String() string {
	switch l {
	case Python:
		return "Python"
	case Java:
		return "Java"
	case Go:
		return "Go"
	}
	return fmt.Sprintf("Language(%d)", int(l))
}
