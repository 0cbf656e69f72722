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

	uast "namer/internal/ast"
)

// Parse parses Go source into a unified AST rooted at a Module node.
func Parse(src string) (*uast.Node, error) {
	fset := gotoken.NewFileSet()
	file, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	c := &converter{fset: fset}
	return c.file(file), nil
}

type converter struct {
	fset *gotoken.FileSet
}

// pos is the node's line in the source as given, ignoring //line directives.
func (c *converter) pos(n goast.Node) int {
	if n == nil {
		return 0
	}
	return c.fset.PositionFor(n.Pos(), false).Line
}

func (c *converter) node(k uast.Kind, n goast.Node, children ...*uast.Node) *uast.Node {
	out := uast.NewNode(k, children...)
	out.Line = c.pos(n)
	return out
}

func (c *converter) leaf(k uast.Kind, value string, n goast.Node) *uast.Node {
	out := uast.NewLeaf(k, value)
	out.Line = c.pos(n)
	return out
}

func (c *converter) file(f *goast.File) *uast.Node {
	mod := c.node(uast.Module, f)
	mod.Add(c.node(uast.PackageDecl, f.Name, c.leaf(uast.Ident, f.Name.Name, f.Name)))
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		alias := c.node(uast.ImportAlias, imp, c.leaf(uast.Ident, path, imp))
		if imp.Name != nil {
			alias.Add(c.leaf(uast.Ident, imp.Name.Name, imp.Name))
		}
		mod.Add(c.node(uast.Import, imp, alias))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *goast.FuncDecl:
			mod.Add(c.funcDecl(d))
		case *goast.GenDecl:
			if d.Tok == gotoken.IMPORT {
				continue
			}
			for _, out := range c.genDecl(d) {
				mod.Add(out)
			}
		}
	}
	return mod
}

func (c *converter) genDecl(d *goast.GenDecl) []*uast.Node {
	var out []*uast.Node
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *goast.TypeSpec:
			out = append(out, c.typeSpec(s))
		case *goast.ValueSpec:
			out = append(out, c.valueSpec(s)...)
		}
	}
	return out
}

func (c *converter) typeSpec(s *goast.TypeSpec) *uast.Node {
	switch t := s.Type.(type) {
	case *goast.StructType:
		cls := c.node(uast.ClassDef, s, c.leaf(uast.Ident, s.Name.Name, s.Name),
			c.node(uast.Bases, s))
		body := c.node(uast.Body, s)
		for _, f := range t.Fields.List {
			typ := c.typeRef(f.Type)
			if len(f.Names) == 0 {
				// Embedded field: treat as a base.
				cls.Children[1].Add(typ)
				continue
			}
			for _, nm := range f.Names {
				body.Add(c.node(uast.FieldDecl, f, typ.Clone(),
					c.node(uast.NameStore, nm, c.leaf(uast.Ident, nm.Name, nm))))
			}
		}
		cls.Add(body)
		return cls
	case *goast.InterfaceType:
		it := c.node(uast.InterfaceDef, s, c.leaf(uast.Ident, s.Name.Name, s.Name),
			c.node(uast.Bases, s))
		body := c.node(uast.Body, s)
		for _, m := range t.Methods.List {
			for _, nm := range m.Names {
				body.Add(c.node(uast.FunctionDef, m,
					c.leaf(uast.Ident, nm.Name, nm), c.node(uast.Params, m), c.node(uast.Body, m)))
			}
		}
		it.Add(body)
		return it
	default:
		// Named type alias: record as an empty class.
		return c.node(uast.ClassDef, s, c.leaf(uast.Ident, s.Name.Name, s.Name),
			c.node(uast.Bases, s), c.node(uast.Body, s))
	}
}

func (c *converter) valueSpec(s *goast.ValueSpec) []*uast.Node {
	var out []*uast.Node
	for i, nm := range s.Names {
		d := c.node(uast.LocalVarDecl, s)
		if s.Type != nil {
			d.Add(c.typeRef(s.Type))
		}
		d.Add(c.node(uast.NameStore, nm, c.leaf(uast.Ident, nm.Name, nm)))
		if i < len(s.Values) {
			d.Add(c.expr(s.Values[i], false))
		}
		out = append(out, d)
	}
	return out
}

func (c *converter) funcDecl(d *goast.FuncDecl) *uast.Node {
	fn := c.node(uast.FunctionDef, d)
	fn.Add(c.leaf(uast.Ident, d.Name.Name, d.Name))
	params := c.node(uast.Params, d)
	if d.Recv != nil {
		for _, f := range d.Recv.List {
			for _, nm := range f.Names {
				params.Add(c.node(uast.Param, f, c.typeRef(f.Type),
					c.leaf(uast.Ident, nm.Name, nm)))
			}
		}
	}
	if d.Type.Params != nil {
		for _, f := range d.Type.Params.List {
			typ := c.typeRef(f.Type)
			if len(f.Names) == 0 {
				params.Add(c.node(uast.Param, f, typ))
				continue
			}
			for _, nm := range f.Names {
				params.Add(c.node(uast.Param, f, typ.Clone(),
					c.leaf(uast.Ident, nm.Name, nm)))
			}
		}
	}
	fn.Add(params)
	body := c.node(uast.Body, d)
	if d.Body != nil {
		for _, st := range d.Body.List {
			body.Add(c.stmt(st))
		}
	}
	fn.Add(body)
	return fn
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
