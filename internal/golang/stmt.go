package golang

import (
	goast "go/ast"
	gotoken "go/token"

	uast "namer/internal/ast"
)

// stmt converts one Go statement.
func (c *converter) stmt(s goast.Stmt) *uast.Node {
	switch x := s.(type) {
	case *goast.AssignStmt:
		return c.assign(x)
	case *goast.ExprStmt:
		return c.node(uast.ExprStmt, x, c.expr(x.X, false))
	case *goast.ReturnStmt:
		mark := len(c.stack)
		for _, r := range x.Results {
			c.push(c.expr(r, false))
		}
		return c.done(uast.Return, x, mark)
	case *goast.IfStmt:
		var out *uast.Node
		if x.Else != nil {
			out = c.node(uast.If, x, c.expr(x.Cond, false), c.block(x.Body), c.elseClause(x.Else))
		} else {
			out = c.node(uast.If, x, c.expr(x.Cond, false), c.block(x.Body))
		}
		if x.Init != nil {
			// Hoist the init statement in front via a Block.
			return c.node(uast.Block, x, c.stmt(x.Init), out)
		}
		return out
	case *goast.ForStmt:
		mark := len(c.stack)
		if x.Init != nil {
			c.push(c.stmt(x.Init))
		}
		if x.Cond != nil {
			c.push(c.expr(x.Cond, false))
		}
		if x.Post != nil {
			c.push(c.stmt(x.Post))
		}
		c.push(c.block(x.Body))
		return c.done(uast.For, x, mark)
	case *goast.RangeStmt:
		mark := len(c.stack)
		c.push(c.node(uast.TypeRef, x, c.leaf(uast.Ident, "range", x)))
		if x.Key != nil {
			c.push(c.storeTarget(x.Key))
		} else {
			c.push(c.node(uast.NameStore, x, c.leaf(uast.Ident, "_", x)))
		}
		if x.Value != nil {
			c.push(c.storeTarget(x.Value))
		}
		c.push(c.expr(x.X, false))
		c.push(c.block(x.Body))
		return c.done(uast.ForEach, x, mark)
	case *goast.SwitchStmt:
		var tag *uast.Node
		if x.Tag != nil {
			tag = c.expr(x.Tag, false)
		} else {
			tag = c.node(uast.Bool, x, c.leaf(uast.BoolLit, "true", x))
		}
		return c.node(uast.Switch, x, tag, c.clauses(x, x.Body))
	case *goast.TypeSwitchStmt:
		return c.node(uast.Switch, x, c.node(uast.NameLoad, x, c.leaf(uast.Ident, "type", x)),
			c.clauses(x, x.Body))
	case *goast.SelectStmt:
		return c.node(uast.Switch, x, c.node(uast.NameLoad, x, c.leaf(uast.Ident, "select", x)),
			c.clauses(x, x.Body))
	case *goast.BlockStmt:
		return c.block(x)
	case *goast.DeclStmt:
		if gd, ok := x.Decl.(*goast.GenDecl); ok {
			mark := len(c.stack)
			c.genDecl(gd)
			if len(c.stack) == mark+1 {
				decl := c.stack[mark]
				c.stack = c.stack[:mark]
				return decl
			}
			return c.done(uast.Block, x, mark)
		}
		return c.node(uast.EmptyStmt, x)
	case *goast.IncDecStmt:
		op := "++"
		if x.Tok == gotoken.DEC {
			op = "--"
		}
		return c.node(uast.ExprStmt, x,
			c.node(uast.UnaryOp, x, c.leaf(uast.OpTok, op, x), c.expr(x.X, false)))
	case *goast.BranchStmt:
		switch x.Tok {
		case gotoken.BREAK:
			return c.node(uast.Break, x)
		case gotoken.CONTINUE:
			return c.node(uast.Continue, x)
		default:
			return c.node(uast.EmptyStmt, x)
		}
	case *goast.DeferStmt:
		return c.node(uast.ExprStmt, x, c.expr(x.Call, false))
	case *goast.GoStmt:
		return c.node(uast.ExprStmt, x, c.expr(x.Call, false))
	case *goast.SendStmt:
		return c.node(uast.ExprStmt, x,
			c.node(uast.BinOp, x, c.leaf(uast.OpTok, "<-", x),
				c.expr(x.Chan, false), c.expr(x.Value, false)))
	case *goast.LabeledStmt:
		return c.node(uast.LabeledStmt, x,
			c.leaf(uast.Ident, x.Label.Name, x.Label), c.stmt(x.Stmt))
	case *goast.EmptyStmt:
		return c.node(uast.EmptyStmt, x)
	}
	return c.node(uast.EmptyStmt, s)
}

func (c *converter) block(b *goast.BlockStmt) *uast.Node {
	return c.stmts(uast.Body, b, b.List)
}

// stmts converts a statement list into a node of kind k at n's line.
func (c *converter) stmts(k uast.Kind, n goast.Node, list []goast.Stmt) *uast.Node {
	mark := len(c.stack)
	for _, st := range list {
		c.push(c.stmt(st))
	}
	return c.done(k, n, mark)
}

// clauses converts the body of a switch, type switch or select into a Body
// of CaseClauses. Only an expression switch's clauses keep their case
// expressions; the others keep just their statements.
func (c *converter) clauses(x goast.Stmt, b *goast.BlockStmt) *uast.Node {
	mark := len(c.stack)
	_, exprSwitch := x.(*goast.SwitchStmt)
	for _, cc := range b.List {
		var exprs []goast.Expr
		var stmts []goast.Stmt
		switch clause := cc.(type) {
		case *goast.CaseClause:
			if exprSwitch {
				exprs = clause.List
			}
			stmts = clause.Body
		case *goast.CommClause:
			stmts = clause.Body
		default:
			continue
		}
		caseMark := len(c.stack)
		for _, e := range exprs {
			c.push(c.expr(e, false))
		}
		for _, st := range stmts {
			c.push(c.stmt(st))
		}
		c.push(c.done(uast.CaseClause, cc, caseMark))
	}
	return c.done(uast.Body, x, mark)
}

func (c *converter) elseClause(e goast.Stmt) *uast.Node {
	switch x := e.(type) {
	case *goast.IfStmt:
		return c.node(uast.Elif, x, c.stmt(x))
	case *goast.BlockStmt:
		return c.node(uast.Else, x, c.block(x))
	}
	return c.node(uast.Else, e, c.node(uast.Body, e, c.stmt(e)))
}

var goAugOps = map[gotoken.Token]string{
	gotoken.ADD_ASSIGN: "+=", gotoken.SUB_ASSIGN: "-=", gotoken.MUL_ASSIGN: "*=",
	gotoken.QUO_ASSIGN: "/=", gotoken.REM_ASSIGN: "%=", gotoken.AND_ASSIGN: "&=",
	gotoken.OR_ASSIGN: "|=", gotoken.XOR_ASSIGN: "^=", gotoken.SHL_ASSIGN: "<<=",
	gotoken.SHR_ASSIGN: ">>=", gotoken.AND_NOT_ASSIGN: "&^=",
}

func (c *converter) assign(x *goast.AssignStmt) *uast.Node {
	if op, ok := goAugOps[x.Tok]; ok {
		return c.node(uast.AugAssign, x, c.storeTarget(x.Lhs[0]),
			c.leaf(uast.OpTok, op, x), c.expr(x.Rhs[0], false))
	}
	var lhs, rhs *uast.Node
	if len(x.Lhs) == 1 {
		lhs = c.storeTarget(x.Lhs[0])
	} else {
		mark := len(c.stack)
		for _, l := range x.Lhs {
			c.push(c.storeTarget(l))
		}
		lhs = c.done(uast.TupleLit, x, mark)
	}
	if len(x.Rhs) == 1 {
		rhs = c.expr(x.Rhs[0], false)
	} else {
		mark := len(c.stack)
		for _, r := range x.Rhs {
			c.push(c.expr(r, false))
		}
		rhs = c.done(uast.TupleLit, x, mark)
	}
	return c.node(uast.Assign, x, lhs, rhs)
}

func (c *converter) storeTarget(e goast.Expr) *uast.Node {
	return c.expr(e, true)
}
