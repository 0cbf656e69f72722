// Package golang maps Go source onto the unified AST via the standard
// library's go/parser, adding a third front end next to pylang and
// javalang. It demonstrates the paper's §5.1 claim that the framework
// "is generic and can be applied to other languages": downstream stages
// (AST+, name paths, mining, classification) run unchanged.
//
// Mapping conventions: a method's receiver becomes the first parameter
// (playing the self/this role), struct types become ClassDef with
// FieldDecl members, selector expressions become AttributeLoad, and
// `x := e` / `var x T = e` become Assign / LocalVarDecl like their
// Python/Java counterparts.
package golang

import (
	goast "go/ast"
	"go/parser"
	gotoken "go/token"
	"strings"
	"unsafe"

	uast "namer/internal/ast"
)

// Parse parses Go source into a unified AST rooted at a Module node.
func Parse(src string) (*uast.Node, error) {
	fset := gotoken.NewFileSet()
	file, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return newConverter(fset.File(file.FileStart)).file(file), nil
}

// Slab sizes: nodes and child lists are carved from per-file chunks of
// 8 KiB and 2 KiB, each filling one of the allocator's size classes, so a
// tree costs a few allocations per hundred nodes and a cached tree keeps
// at most one part-used chunk of each.
const (
	nodeChunk = 8192 / int(unsafe.Sizeof(uast.Node{}))
	kidChunk  = 2048 / int(unsafe.Sizeof((*uast.Node)(nil)))
)

type converter struct {
	base, size int   // the file's Base and Size in its FileSet
	lines      []int // offsets of the file's line starts (token.File.Lines)
	cur        int   // index into lines of the last line found

	nodes []uast.Node  // unused rest of the current node chunk
	kids  []*uast.Node // unused rest of the current child-list chunk
	stack []*uast.Node // children pushed for the lists being built, innermost last
}

func newConverter(tf *gotoken.File) *converter {
	return &converter{base: tf.Base(), size: tf.Size(), lines: tf.Lines(), stack: make([]*uast.Node, 0, 64)}
}

// pos is the node's line in the source as given, ignoring //line
// directives: FileSet.PositionFor(n.Pos(), false).Line, looked up in the
// file's own line table without the FileSet's lock. Most lookups land on
// the line of the previous one; the rest binary-search.
func (c *converter) pos(n goast.Node) int {
	if n == nil {
		return 0
	}
	p := n.Pos()
	off := int(p) - c.base
	if !p.IsValid() || off < 0 || off > c.size {
		return 0
	}
	lines := c.lines
	if i := c.cur; lines[i] <= off && (i+1 == len(lines) || off < lines[i+1]) {
		return i + 1
	}
	// lines[0] is 0, so the line is the last index whose offset is <= off.
	lo, hi := 1, len(lines)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lines[m] <= off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	c.cur = lo - 1
	return lo
}

// alloc returns a node from the slab, set to kind k, value v and n's line.
func (c *converter) alloc(k uast.Kind, v string, n goast.Node) *uast.Node {
	if len(c.nodes) == 0 {
		c.nodes = make([]uast.Node, nodeChunk)
	}
	out := &c.nodes[0]
	c.nodes = c.nodes[1:]
	*out = uast.Node{Kind: k, Value: v, Line: c.pos(n)}
	return out
}

// children returns a child list of length and capacity size from the
// slab; an append past its end copies it rather than overwrite a
// neighbour's list.
func (c *converter) children(size int) []*uast.Node {
	if size > len(c.kids) {
		if size > kidChunk {
			return make([]*uast.Node, size)
		}
		c.kids = make([]*uast.Node, kidChunk)
	}
	out := c.kids[:size:size]
	c.kids = c.kids[size:]
	return out
}

// node returns a non-terminal node at n's line with exactly these children.
func (c *converter) node(k uast.Kind, n goast.Node, children ...*uast.Node) *uast.Node {
	out := c.alloc(k, k.String(), n)
	if len(children) > 0 {
		out.Children = c.children(len(children))
		copy(out.Children, children)
	}
	return out
}

// push adds a child to the innermost list being built; a list is begun by
// taking mark := len(c.stack) and ended by done, so that a nested
// conversion pops its own children before its node is pushed.
func (c *converter) push(n *uast.Node) {
	c.stack = append(c.stack, n)
}

// done pops the children pushed since mark into a new non-terminal node at
// n's line.
func (c *converter) done(k uast.Kind, n goast.Node, mark int) *uast.Node {
	out := c.node(k, n, c.stack[mark:]...)
	c.stack = c.stack[:mark]
	return out
}

func (c *converter) leaf(k uast.Kind, value string, n goast.Node) *uast.Node {
	return c.alloc(k, value, n)
}

// clone is ast.Node.Clone on the slab.
func (c *converter) clone(n *uast.Node) *uast.Node {
	out := c.alloc(n.Kind, n.Value, nil)
	out.Line = n.Line
	if len(n.Children) > 0 {
		out.Children = c.children(len(n.Children))
		for i, ch := range n.Children {
			out.Children[i] = c.clone(ch)
		}
	}
	return out
}

func (c *converter) file(f *goast.File) *uast.Node {
	mark := len(c.stack)
	c.push(c.node(uast.PackageDecl, f.Name, c.leaf(uast.Ident, f.Name.Name, f.Name)))
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		aliasMark := len(c.stack)
		c.push(c.leaf(uast.Ident, path, imp))
		if imp.Name != nil {
			c.push(c.leaf(uast.Ident, imp.Name.Name, imp.Name))
		}
		c.push(c.node(uast.Import, imp, c.done(uast.ImportAlias, imp, aliasMark)))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *goast.FuncDecl:
			c.push(c.funcDecl(d))
		case *goast.GenDecl:
			if d.Tok != gotoken.IMPORT {
				c.genDecl(d)
			}
		}
	}
	return c.done(uast.Module, f, mark)
}

// genDecl pushes the nodes of d's type and value specs.
func (c *converter) genDecl(d *goast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *goast.TypeSpec:
			c.push(c.typeSpec(s))
		case *goast.ValueSpec:
			c.valueSpec(s)
		}
	}
}

func (c *converter) typeSpec(s *goast.TypeSpec) *uast.Node {
	switch t := s.Type.(type) {
	case *goast.StructType:
		// Embedded fields are the bases.
		mark := len(c.stack)
		for _, f := range t.Fields.List {
			if len(f.Names) == 0 {
				c.push(c.typeRef(f.Type))
			}
		}
		bases := c.done(uast.Bases, s, mark)
		for _, f := range t.Fields.List {
			if len(f.Names) == 0 {
				continue
			}
			typ := c.typeRef(f.Type)
			for i, nm := range f.Names {
				if i > 0 {
					typ = c.clone(typ)
				}
				c.push(c.node(uast.FieldDecl, f, typ,
					c.node(uast.NameStore, nm, c.leaf(uast.Ident, nm.Name, nm))))
			}
		}
		return c.node(uast.ClassDef, s, c.leaf(uast.Ident, s.Name.Name, s.Name), bases,
			c.done(uast.Body, s, mark))
	case *goast.InterfaceType:
		mark := len(c.stack)
		for _, m := range t.Methods.List {
			for _, nm := range m.Names {
				c.push(c.node(uast.FunctionDef, m,
					c.leaf(uast.Ident, nm.Name, nm), c.node(uast.Params, m), c.node(uast.Body, m)))
			}
		}
		return c.node(uast.InterfaceDef, s, c.leaf(uast.Ident, s.Name.Name, s.Name),
			c.node(uast.Bases, s), c.done(uast.Body, s, mark))
	default:
		// Named type alias: record as an empty class.
		return c.node(uast.ClassDef, s, c.leaf(uast.Ident, s.Name.Name, s.Name),
			c.node(uast.Bases, s), c.node(uast.Body, s))
	}
}

// valueSpec pushes a LocalVarDecl per name of s.
func (c *converter) valueSpec(s *goast.ValueSpec) {
	for i, nm := range s.Names {
		mark := len(c.stack)
		if s.Type != nil {
			c.push(c.typeRef(s.Type))
		}
		c.push(c.node(uast.NameStore, nm, c.leaf(uast.Ident, nm.Name, nm)))
		if i < len(s.Values) {
			c.push(c.expr(s.Values[i], false))
		}
		c.push(c.done(uast.LocalVarDecl, s, mark))
	}
}

func (c *converter) funcDecl(d *goast.FuncDecl) *uast.Node {
	mark := len(c.stack)
	if d.Recv != nil {
		for _, f := range d.Recv.List {
			for _, nm := range f.Names {
				c.push(c.node(uast.Param, f, c.typeRef(f.Type), c.leaf(uast.Ident, nm.Name, nm)))
			}
		}
	}
	if d.Type.Params != nil {
		for _, f := range d.Type.Params.List {
			typ := c.typeRef(f.Type)
			if len(f.Names) == 0 {
				c.push(c.node(uast.Param, f, typ))
				continue
			}
			for i, nm := range f.Names {
				if i > 0 {
					typ = c.clone(typ)
				}
				c.push(c.node(uast.Param, f, typ, c.leaf(uast.Ident, nm.Name, nm)))
			}
		}
	}
	params := c.done(uast.Params, d, mark)
	var body *uast.Node
	if d.Body != nil {
		body = c.stmts(uast.Body, d, d.Body.List)
	} else {
		body = c.node(uast.Body, d)
	}
	return c.node(uast.FunctionDef, d, c.leaf(uast.Ident, d.Name.Name, d.Name), params, body)
}

// typeRef renders a Go type expression as a TypeRef with a dotted name.
func (c *converter) typeRef(t goast.Expr) *uast.Node {
	return c.node(uast.TypeRef, t, c.leaf(uast.Ident, typeName(t), t))
}

func typeName(t goast.Expr) string {
	switch x := t.(type) {
	case *goast.Ident:
		return x.Name
	case *goast.SelectorExpr:
		return typeName(x.X) + "." + x.Sel.Name
	case *goast.StarExpr:
		return typeName(x.X)
	case *goast.ArrayType:
		return typeName(x.Elt) + "[]"
	case *goast.MapType:
		return "map"
	case *goast.FuncType:
		return "func"
	case *goast.ChanType:
		return "chan"
	case *goast.InterfaceType:
		return "interface"
	case *goast.StructType:
		return "struct"
	case *goast.Ellipsis:
		return typeName(x.Elt) + "[]"
	case *goast.IndexExpr:
		return typeName(x.X)
	case *goast.IndexListExpr:
		return typeName(x.X)
	}
	return "type"
}
