package golang

import (
	goast "go/ast"
	gotoken "go/token"

	uast "namer/internal/ast"
)

// expr converts one Go expression; store selects the NameStore /
// AttributeStore / SubscriptStore context for assignment targets.
func (c *converter) expr(e goast.Expr, store bool) *uast.Node {
	switch x := e.(type) {
	case *goast.Ident:
		kind := uast.NameLoad
		if store {
			kind = uast.NameStore
		}
		switch x.Name {
		case "true", "false":
			return c.node(uast.Bool, x, c.leaf(uast.BoolLit, x.Name, x))
		case "nil":
			return c.node(uast.Null, x, c.leaf(uast.NullLit, "nil", x))
		}
		return c.node(kind, x, c.leaf(uast.Ident, x.Name, x))
	case *goast.BasicLit:
		switch x.Kind {
		case gotoken.INT, gotoken.FLOAT, gotoken.IMAG:
			return c.node(uast.Num, x, c.leaf(uast.NumLit, x.Value, x))
		case gotoken.CHAR, gotoken.STRING:
			return c.node(uast.Str, x, c.leaf(uast.StrLit, x.Value, x))
		}
		return c.node(uast.Str, x, c.leaf(uast.StrLit, x.Value, x))
	case *goast.SelectorExpr:
		kind := uast.AttributeLoad
		if store {
			kind = uast.AttributeStore
		}
		return c.node(kind, x, c.expr(x.X, false),
			c.node(uast.Attr, x.Sel, c.leaf(uast.Ident, x.Sel.Name, x.Sel)))
	case *goast.CallExpr:
		mark := len(c.stack)
		c.push(c.expr(x.Fun, false))
		for _, a := range x.Args {
			c.push(c.expr(a, false))
		}
		return c.done(uast.Call, x, mark)
	case *goast.IndexExpr:
		kind := uast.SubscriptLoad
		if store {
			kind = uast.SubscriptStore
		}
		return c.node(kind, x, c.expr(x.X, false),
			c.node(uast.Index, x, c.expr(x.Index, false)))
	case *goast.SliceExpr:
		mark := len(c.stack)
		for _, part := range [...]goast.Expr{x.Low, x.High, x.Max} {
			if part != nil {
				c.push(c.expr(part, false))
			}
		}
		sl := c.done(uast.SliceRange, x, mark)
		return c.node(uast.SubscriptLoad, x, c.expr(x.X, false), sl)
	case *goast.BinaryExpr:
		op := x.Op.String()
		kind := uast.BinOp
		switch x.Op {
		case gotoken.LAND, gotoken.LOR:
			kind = uast.BoolOp
		case gotoken.EQL, gotoken.NEQ, gotoken.LSS, gotoken.GTR, gotoken.LEQ, gotoken.GEQ:
			return c.node(uast.Compare, x, c.expr(x.X, false),
				c.leaf(uast.OpTok, op, x), c.expr(x.Y, false))
		}
		return c.node(kind, x, c.leaf(uast.OpTok, op, x),
			c.expr(x.X, false), c.expr(x.Y, false))
	case *goast.UnaryExpr:
		return c.node(uast.UnaryOp, x, c.leaf(uast.OpTok, x.Op.String(), x),
			c.expr(x.X, false))
	case *goast.StarExpr:
		return c.node(uast.UnaryOp, x, c.leaf(uast.OpTok, "*", x),
			c.expr(x.X, false))
	case *goast.ParenExpr:
		return c.expr(x.X, store)
	case *goast.CompositeLit:
		mark := len(c.stack)
		for _, el := range x.Elts {
			c.push(c.expr(el, false))
		}
		return c.done(uast.ListLit, x, mark)
	case *goast.KeyValueExpr:
		return c.node(uast.DictItem, x, c.expr(x.Key, false), c.expr(x.Value, false))
	case *goast.FuncLit:
		mark := len(c.stack)
		if x.Type.Params != nil {
			for _, f := range x.Type.Params.List {
				for _, nm := range f.Names {
					c.push(c.node(uast.Param, f, c.typeRef(f.Type),
						c.leaf(uast.Ident, nm.Name, nm)))
				}
			}
		}
		params := c.done(uast.Params, x, mark)
		return c.node(uast.Lambda, x, params, c.block(x.Body))
	case *goast.TypeAssertExpr:
		if x.Type == nil {
			return c.expr(x.X, false)
		}
		return c.node(uast.Cast, x, c.typeRef(x.Type), c.expr(x.X, false))
	case *goast.Ellipsis:
		if x.Elt != nil {
			return c.node(uast.StarArg, x, c.expr(x.Elt, false))
		}
		return c.node(uast.NameLoad, x, c.leaf(uast.Ident, "...", x))
	case *goast.ArrayType, *goast.MapType, *goast.ChanType, *goast.FuncType,
		*goast.StructType, *goast.InterfaceType:
		return c.typeRef(x)
	case *goast.IndexListExpr:
		return c.expr(x.X, store)
	}
	return c.node(uast.NameLoad, e, c.leaf(uast.Ident, "_", e))
}
