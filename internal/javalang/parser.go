package javalang

import (
	"fmt"
	"strings"

	"namer/internal/ast"
)

// Parse parses Java source into a unified AST rooted at a Module node.
func Parse(src string) (*ast.Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var root *ast.Node
	err = p.recoverParse(func() {
		root = p.parseCompilationUnit()
	})
	if err != nil {
		return nil, err
	}
	return root, nil
}

type parseError struct {
	line int
	msg  string
}

func (e *parseError) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

type parser struct {
	toks []token
	pos  int
}

func (p *parser) recoverParse(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*parseError); ok {
				err = pe
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) peek(k int) token {
	if p.pos+k < len(p.toks) {
		return p.toks[p.pos+k]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) fail(format string, args ...any) {
	panic(&parseError{p.cur().line, fmt.Sprintf(format, args...)})
}

func (p *parser) at(k tokKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) atKw(kw string) bool { return p.at(tokKeyword, kw) }
func (p *parser) atOp(op string) bool { return p.at(tokOp, op) }

func (p *parser) eat(k tokKind, text string) token {
	if !p.at(k, text) {
		p.fail("expected %s %q, got %s %q", k, text, p.cur().kind, p.cur().text)
	}
	return p.next()
}

func (p *parser) eatOp(op string) token { return p.eat(tokOp, op) }
func (p *parser) eatKw(kw string) token { return p.eat(tokKeyword, kw) }

func (p *parser) accept(k tokKind, text string) bool {
	if p.at(k, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptOp(op string) bool { return p.accept(tokOp, op) }
func (p *parser) acceptKw(kw string) bool { return p.accept(tokKeyword, kw) }

func node(k ast.Kind, line int, children ...*ast.Node) *ast.Node {
	n := ast.NewNode(k, children...)
	n.Line = line
	return n
}

func leaf(k ast.Kind, text string, line int) *ast.Node {
	n := ast.NewLeaf(k, text)
	n.Line = line
	return n
}

// speculate runs fn with backtracking: if fn panics with a parse error, the
// position is restored and speculate returns nil.
func (p *parser) speculate(fn func() *ast.Node) *ast.Node {
	save := p.pos
	var out *ast.Node
	err := p.recoverParse(func() { out = fn() })
	if err != nil {
		p.pos = save
		return nil
	}
	return out
}

var primitiveTypes = map[string]bool{
	"boolean": true, "byte": true, "char": true, "short": true, "int": true,
	"long": true, "float": true, "double": true, "void": true, "var": true,
}

var modifierWords = map[string]bool{
	"public": true, "private": true, "protected": true, "static": true,
	"final": true, "abstract": true, "native": true, "synchronized": true,
	"transient": true, "volatile": true, "strictfp": true, "default": true,
	"const": true,
}

// parseCompilationUnit: [package] imports* typeDecl*
func (p *parser) parseCompilationUnit() *ast.Node {
	mod := node(ast.Module, 1)
	if p.atKw("package") {
		line := p.next().line
		name := p.parseQualifiedName()
		p.eatOp(";")
		mod.Add(node(ast.PackageDecl, line, leaf(ast.Ident, name, line)))
	}
	for p.atKw("import") {
		line := p.next().line
		p.acceptKw("static")
		name := p.parseQualifiedName()
		if p.acceptOp(".") {
			p.eatOp("*")
			name += ".*"
		}
		p.eatOp(";")
		mod.Add(node(ast.Import, line, node(ast.ImportAlias, line, leaf(ast.Ident, name, line))))
	}
	for !p.at(tokEOF, "") {
		if p.acceptOp(";") {
			continue
		}
		mod.Add(p.parseTypeDecl())
	}
	return mod
}

func (p *parser) parseQualifiedName() string {
	nm := p.eat(tokName, "").text
	for p.atOp(".") && p.peek(1).kind == tokName {
		p.next()
		nm += "." + p.next().text
	}
	return nm
}

// parseModifiers consumes modifier keywords and annotations, returning a
// Modifiers node (possibly empty).
func (p *parser) parseModifiers() *ast.Node {
	mods := node(ast.Modifiers, p.cur().line)
	for {
		t := p.cur()
		switch {
		case t.kind == tokKeyword && modifierWords[t.text]:
			// `synchronized (expr)` is a statement, not a modifier.
			if t.text == "synchronized" && p.peek(1).kind == tokOp && p.peek(1).text == "(" {
				return mods
			}
			p.next()
			mods.Add(node(ast.Modifier, t.line, leaf(ast.Ident, t.text, t.line)))
		case t.kind == tokOp && t.text == "@":
			p.next()
			name := p.parseQualifiedName()
			ann := node(ast.Annotation, t.line, leaf(ast.Ident, name, t.line))
			if p.atOp("(") {
				p.skipBalanced("(", ")")
			}
			mods.Add(ann)
		default:
			return mods
		}
	}
}

// skipBalanced consumes a balanced token run from open to close.
func (p *parser) skipBalanced(open, close string) {
	p.eatOp(open)
	depth := 1
	for depth > 0 {
		// Check before advancing: fail reports the current token, which
		// must still exist.
		if p.cur().kind == tokEOF {
			p.fail("unexpected EOF skipping %s...%s", open, close)
		}
		t := p.next()
		if t.kind == tokOp {
			switch t.text {
			case open:
				depth++
			case close:
				depth--
			}
		}
	}
}

func (p *parser) parseTypeDecl() *ast.Node {
	mods := p.parseModifiers()
	switch {
	case p.atKw("class"):
		return p.parseClassDecl(mods)
	case p.atKw("interface"):
		return p.parseInterfaceDecl(mods)
	case p.atKw("enum"):
		return p.parseEnumDecl(mods)
	}
	p.fail("expected type declaration, got %q", p.cur().text)
	return nil
}

// skipTypeParams consumes a generic parameter/argument list starting at '<'.
func (p *parser) skipTypeParams() {
	depth := 0
	for {
		t := p.cur()
		if t.kind == tokEOF {
			p.fail("unexpected EOF in type parameters")
		}
		p.next()
		if t.kind == tokOp {
			switch t.text {
			case "<", "<<":
				depth += len(t.text)
			case ">":
				depth--
			case ">>":
				depth -= 2
			case ">>>":
				depth -= 3
			}
			if depth <= 0 {
				return
			}
		}
	}
}

func (p *parser) parseClassDecl(mods *ast.Node) *ast.Node {
	line := p.eatKw("class").line
	name := p.eat(tokName, "")
	cls := node(ast.ClassDef, line)
	if len(mods.Children) > 0 {
		cls.Add(mods)
	}
	cls.Add(leaf(ast.Ident, name.text, name.line))
	if p.atOp("<") {
		p.skipTypeParams()
	}
	bases := node(ast.Bases, line)
	if p.acceptKw("extends") {
		bases.Add(p.parseType())
	}
	if p.acceptKw("implements") {
		for {
			bases.Add(p.parseType())
			if !p.acceptOp(",") {
				break
			}
		}
	}
	cls.Add(bases)
	cls.Add(p.parseClassBody(name.text))
	return cls
}

func (p *parser) parseInterfaceDecl(mods *ast.Node) *ast.Node {
	line := p.eatKw("interface").line
	name := p.eat(tokName, "")
	it := node(ast.InterfaceDef, line)
	if len(mods.Children) > 0 {
		it.Add(mods)
	}
	it.Add(leaf(ast.Ident, name.text, name.line))
	if p.atOp("<") {
		p.skipTypeParams()
	}
	bases := node(ast.Bases, line)
	if p.acceptKw("extends") {
		for {
			bases.Add(p.parseType())
			if !p.acceptOp(",") {
				break
			}
		}
	}
	it.Add(bases)
	it.Add(p.parseClassBody(name.text))
	return it
}

func (p *parser) parseEnumDecl(mods *ast.Node) *ast.Node {
	line := p.eatKw("enum").line
	name := p.eat(tokName, "")
	en := node(ast.EnumDef, line)
	if len(mods.Children) > 0 {
		en.Add(mods)
	}
	en.Add(leaf(ast.Ident, name.text, name.line))
	bases := node(ast.Bases, line)
	if p.acceptKw("implements") {
		for {
			bases.Add(p.parseType())
			if !p.acceptOp(",") {
				break
			}
		}
	}
	en.Add(bases)
	body := node(ast.Body, p.cur().line)
	p.eatOp("{")
	// Enum constants.
	for p.at(tokName, "") || p.atOp("@") {
		for p.atOp("@") {
			p.next()
			p.parseQualifiedName()
			if p.atOp("(") {
				p.skipBalanced("(", ")")
			}
		}
		if !p.at(tokName, "") {
			break
		}
		cn := p.next()
		konst := node(ast.FieldDecl, cn.line, node(ast.NameStore, cn.line, leaf(ast.Ident, cn.text, cn.line)))
		if p.atOp("(") {
			line := p.cur().line
			call := node(ast.Call, line, node(ast.NameLoad, cn.line, leaf(ast.Ident, cn.text, cn.line)))
			p.next()
			for !p.atOp(")") {
				call.Add(p.parseExpr())
				if !p.acceptOp(",") {
					break
				}
			}
			p.eatOp(")")
			konst.Add(call)
		}
		if p.atOp("{") {
			konst.Add(p.parseClassBody(name.text))
		}
		body.Add(konst)
		if !p.acceptOp(",") {
			break
		}
	}
	p.acceptOp(";")
	// Remaining members.
	for !p.atOp("}") && !p.at(tokEOF, "") {
		if p.acceptOp(";") {
			continue
		}
		body.Add(p.parseMember(name.text))
	}
	p.eatOp("}")
	en.Add(body)
	return en
}

func (p *parser) parseClassBody(className string) *ast.Node {
	body := node(ast.Body, p.cur().line)
	p.eatOp("{")
	for !p.atOp("}") && !p.at(tokEOF, "") {
		if p.acceptOp(";") {
			continue
		}
		body.Add(p.parseMember(className))
	}
	p.eatOp("}")
	return body
}

// parseMember parses one class member: nested type, initializer block,
// constructor, method, or field.
func (p *parser) parseMember(className string) *ast.Node {
	mods := p.parseModifiers()
	switch {
	case p.atKw("class"):
		return p.parseClassDecl(mods)
	case p.atKw("interface"):
		return p.parseInterfaceDecl(mods)
	case p.atKw("enum"):
		return p.parseEnumDecl(mods)
	case p.atOp("{"):
		// Static or instance initializer block.
		return p.parseBlockNode()
	}
	if p.atOp("<") {
		p.skipTypeParams() // method type parameters
	}
	// Constructor: Name '(' where Name == className.
	if p.at(tokName, "") && p.cur().text == className &&
		p.peek(1).kind == tokOp && p.peek(1).text == "(" {
		nm := p.next()
		ctor := node(ast.CtorDef, nm.line)
		if len(mods.Children) > 0 {
			ctor.Add(mods)
		}
		ctor.Add(leaf(ast.Ident, nm.text, nm.line))
		ctor.Add(p.parseFormalParams())
		p.skipThrows()
		ctor.Add(p.parseMethodBody())
		return ctor
	}
	typ := p.parseType()
	nm := p.eat(tokName, "")
	if p.atOp("(") {
		fn := node(ast.FunctionDef, nm.line)
		if len(mods.Children) > 0 {
			fn.Add(mods)
		}
		fn.Add(typ)
		fn.Add(leaf(ast.Ident, nm.text, nm.line))
		fn.Add(p.parseFormalParams())
		for p.acceptOp("[") { // legacy `int m()[]`
			p.eatOp("]")
		}
		p.skipThrows()
		fn.Add(p.parseMethodBody())
		return fn
	}
	// Field declaration, possibly multiple declarators.
	decls := p.parseDeclarators(ast.FieldDecl, mods, typ, nm)
	p.eatOp(";")
	if len(decls) == 1 {
		return decls[0]
	}
	blk := node(ast.Block, typ.Line)
	blk.Add(decls...)
	return blk
}

func (p *parser) skipThrows() {
	if p.acceptKw("throws") {
		for {
			p.parseType()
			if !p.acceptOp(",") {
				break
			}
		}
	}
}

func (p *parser) parseMethodBody() *ast.Node {
	if p.acceptOp(";") {
		return node(ast.Body, p.cur().line) // abstract / interface method
	}
	return p.parseBlockBody()
}

// parseDeclarators parses `name [=init] (, name [=init])*` given the first
// name already consumed, producing one decl node per declarator.
func (p *parser) parseDeclarators(kind ast.Kind, mods, typ *ast.Node, first token) []*ast.Node {
	var out []*ast.Node
	nm := first
	for {
		d := node(kind, nm.line)
		if mods != nil && len(mods.Children) > 0 {
			d.Add(mods)
		}
		dtyp := typ.Clone()
		for p.acceptOp("[") { // C-style array suffix
			p.eatOp("]")
			dtyp.Children[0].Value += "[]"
		}
		d.Add(dtyp)
		d.Add(node(ast.NameStore, nm.line, leaf(ast.Ident, nm.text, nm.line)))
		if p.acceptOp("=") {
			d.Add(p.parseVarInit())
		}
		out = append(out, d)
		if !p.acceptOp(",") {
			break
		}
		nm = p.eat(tokName, "")
	}
	return out
}

func (p *parser) parseVarInit() *ast.Node {
	if p.atOp("{") {
		return p.parseArrayInit()
	}
	return p.parseExpr()
}

func (p *parser) parseArrayInit() *ast.Node {
	line := p.eatOp("{").line
	arr := node(ast.ArrayLit, line)
	for !p.atOp("}") {
		arr.Add(p.parseVarInit())
		if !p.acceptOp(",") {
			break
		}
	}
	p.eatOp("}")
	return arr
}

func (p *parser) parseFormalParams() *ast.Node {
	params := node(ast.Params, p.cur().line)
	p.eatOp("(")
	for !p.atOp(")") {
		line := p.cur().line
		p.parseModifiers() // final, annotations
		typ := p.parseType()
		vararg := p.acceptOp("...")
		nm := p.eat(tokName, "")
		for p.acceptOp("[") {
			p.eatOp("]")
		}
		kind := ast.Param
		if vararg {
			kind = ast.VarArgParam
		}
		params.Add(node(kind, line, typ, leaf(ast.Ident, nm.text, nm.line)))
		if !p.acceptOp(",") {
			break
		}
	}
	p.eatOp(")")
	return params
}

// parseType parses a type reference: primitive or qualified name, generic
// arguments (discarded), and array dimensions (appended as [] to the name).
func (p *parser) parseType() *ast.Node {
	t := p.cur()
	var name string
	switch {
	case t.kind == tokKeyword && primitiveTypes[t.text]:
		p.next()
		name = t.text
	case t.kind == tokName:
		name = p.parseQualifiedNameWithGenerics()
	default:
		p.fail("expected type, got %q", t.text)
	}
	for p.atOp("[") && p.peek(1).kind == tokOp && p.peek(1).text == "]" {
		p.next()
		p.next()
		name += "[]"
	}
	return node(ast.TypeRef, t.line, leaf(ast.Ident, name, t.line))
}

func (p *parser) parseQualifiedNameWithGenerics() string {
	nm := p.eat(tokName, "").text
	if p.atOp("<") {
		p.skipTypeParams()
	}
	for p.atOp(".") && p.peek(1).kind == tokName {
		p.next()
		nm += "." + p.next().text
		if p.atOp("<") {
			p.skipTypeParams()
		}
	}
	return nm
}

// Statements.

func (p *parser) parseBlockNode() *ast.Node {
	line := p.cur().line
	return node(ast.Block, line, p.parseBlockBody())
}

func (p *parser) parseBlockBody() *ast.Node {
	body := node(ast.Body, p.cur().line)
	p.eatOp("{")
	for !p.atOp("}") && !p.at(tokEOF, "") {
		body.Add(p.parseStatement())
	}
	p.eatOp("}")
	return body
}

// parseStmtAsBody wraps a single statement (or block) in a Body node so
// compound statements always have a Body child.
func (p *parser) parseStmtAsBody() *ast.Node {
	if p.atOp("{") {
		return p.parseBlockBody()
	}
	line := p.cur().line
	return node(ast.Body, line, p.parseStatement())
}

func (p *parser) parseStatement() *ast.Node {
	t := p.cur()
	if t.kind == tokOp {
		switch t.text {
		case "{":
			return p.parseBlockNode()
		case ";":
			p.next()
			return node(ast.EmptyStmt, t.line)
		case "@":
			// Annotated local class or variable.
			mods := p.parseModifiers()
			if p.atKw("class") {
				return p.parseClassDecl(mods)
			}
			return p.parseLocalVarOrExpr()
		}
	}
	if t.kind == tokKeyword {
		switch t.text {
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			p.next()
			p.eatOp("(")
			cond := p.parseExpr()
			p.eatOp(")")
			return node(ast.While, t.line, cond, p.parseStmtAsBody())
		case "do":
			p.next()
			body := p.parseStmtAsBody()
			p.eatKw("while")
			p.eatOp("(")
			cond := p.parseExpr()
			p.eatOp(")")
			p.eatOp(";")
			return node(ast.DoWhile, t.line, body, cond)
		case "try":
			return p.parseTry()
		case "switch":
			return p.parseSwitch()
		case "return":
			p.next()
			stmt := node(ast.Return, t.line)
			if !p.atOp(";") {
				stmt.Add(p.parseExpr())
			}
			p.eatOp(";")
			return stmt
		case "throw":
			p.next()
			stmt := node(ast.Throw, t.line, p.parseExpr())
			p.eatOp(";")
			return stmt
		case "break":
			p.next()
			stmt := node(ast.Break, t.line)
			if p.at(tokName, "") {
				stmt.Add(leaf(ast.Ident, p.next().text, t.line))
			}
			p.eatOp(";")
			return stmt
		case "continue":
			p.next()
			stmt := node(ast.Continue, t.line)
			if p.at(tokName, "") {
				stmt.Add(leaf(ast.Ident, p.next().text, t.line))
			}
			p.eatOp(";")
			return stmt
		case "synchronized":
			p.next()
			p.eatOp("(")
			e := p.parseExpr()
			p.eatOp(")")
			return node(ast.SyncBlock, t.line, e, p.parseBlockBody())
		case "assert":
			p.next()
			stmt := node(ast.AssertStmt, t.line, p.parseExpr())
			if p.acceptOp(":") {
				stmt.Add(p.parseExpr())
			}
			p.eatOp(";")
			return stmt
		case "class":
			return p.parseClassDecl(node(ast.Modifiers, t.line))
		case "final", "static", "abstract":
			mods := p.parseModifiers()
			if p.atKw("class") {
				return p.parseClassDecl(mods)
			}
			// final local variable
			typ := p.parseType()
			nm := p.eat(tokName, "")
			decls := p.parseDeclarators(ast.LocalVarDecl, mods, typ, nm)
			p.eatOp(";")
			if len(decls) == 1 {
				return decls[0]
			}
			blk := node(ast.Block, t.line)
			blk.Add(decls...)
			return blk
		}
	}
	// Labeled statement: Name ':' stmt
	if t.kind == tokName && p.peek(1).kind == tokOp && p.peek(1).text == ":" &&
		!(p.peek(2).kind == tokOp && p.peek(2).text == ":") {
		p.next()
		p.next()
		return node(ast.LabeledStmt, t.line, leaf(ast.Ident, t.text, t.line), p.parseStatement())
	}
	return p.parseLocalVarOrExpr()
}

// parseLocalVarOrExpr disambiguates local variable declarations from
// expression statements via speculative parsing.
func (p *parser) parseLocalVarOrExpr() *ast.Node {
	if decl := p.speculate(p.tryLocalVarDecl); decl != nil {
		return decl
	}
	line := p.cur().line
	e := p.parseExpr()
	p.eatOp(";")
	if e.Kind == ast.Assign || e.Kind == ast.AugAssign {
		return e // assignment expression promoted to statement
	}
	return node(ast.ExprStmt, line, e)
}

func (p *parser) tryLocalVarDecl() *ast.Node {
	line := p.cur().line
	typ := p.parseType()
	if !p.at(tokName, "") {
		p.fail("not a declaration")
	}
	nm := p.next()
	// The token after the declarator name decides.
	if !p.atOp("=") && !p.atOp(";") && !p.atOp(",") && !p.atOp("[") {
		p.fail("not a declaration")
	}
	decls := p.parseDeclarators(ast.LocalVarDecl, nil, typ, nm)
	p.eatOp(";")
	if len(decls) == 1 {
		return decls[0]
	}
	blk := node(ast.Block, line)
	blk.Add(decls...)
	return blk
}

func (p *parser) parseIf() *ast.Node {
	line := p.eatKw("if").line
	p.eatOp("(")
	cond := p.parseExpr()
	p.eatOp(")")
	stmt := node(ast.If, line, cond, p.parseStmtAsBody())
	if p.atKw("else") {
		eline := p.next().line
		if p.atKw("if") {
			stmt.Add(node(ast.Elif, eline, p.parseIf()))
		} else {
			stmt.Add(node(ast.Else, eline, p.parseStmtAsBody()))
		}
	}
	return stmt
}

func (p *parser) parseFor() *ast.Node {
	line := p.eatKw("for").line
	p.eatOp("(")
	// Enhanced for: [final] Type name : expr
	if fe := p.speculate(func() *ast.Node {
		p.parseModifiers()
		typ := p.parseType()
		nm := p.eat(tokName, "")
		if !p.atOp(":") {
			p.fail("not enhanced for")
		}
		p.next()
		iter := p.parseExpr()
		p.eatOp(")")
		return node(ast.ForEach, line, typ,
			node(ast.NameStore, nm.line, leaf(ast.Ident, nm.text, nm.line)), iter)
	}); fe != nil {
		fe.Add(p.parseStmtAsBody())
		return fe
	}
	stmt := node(ast.For, line)
	// Init.
	if !p.atOp(";") {
		if decl := p.speculate(func() *ast.Node {
			p.parseModifiers()
			typ := p.parseType()
			if !p.at(tokName, "") {
				p.fail("not a declaration")
			}
			nm := p.next()
			if !p.atOp("=") && !p.atOp(",") && !p.atOp(";") {
				p.fail("not a declaration")
			}
			decls := p.parseDeclarators(ast.LocalVarDecl, nil, typ, nm)
			blk := node(ast.Block, line)
			blk.Add(decls...)
			if len(decls) == 1 {
				return decls[0]
			}
			return blk
		}); decl != nil {
			stmt.Add(decl)
		} else {
			for {
				stmt.Add(p.parseExpr())
				if !p.acceptOp(",") {
					break
				}
			}
		}
	}
	p.eatOp(";")
	// Condition.
	if !p.atOp(";") {
		stmt.Add(p.parseExpr())
	}
	p.eatOp(";")
	// Update.
	if !p.atOp(")") {
		for {
			stmt.Add(p.parseExpr())
			if !p.acceptOp(",") {
				break
			}
		}
	}
	p.eatOp(")")
	stmt.Add(p.parseStmtAsBody())
	return stmt
}

func (p *parser) parseTry() *ast.Node {
	line := p.eatKw("try").line
	stmt := node(ast.Try, line)
	if p.acceptOp("(") {
		// try-with-resources
		for !p.atOp(")") {
			iline := p.cur().line
			p.parseModifiers()
			if res := p.speculate(func() *ast.Node {
				typ := p.parseType()
				nm := p.eat(tokName, "")
				p.eatOp("=")
				init := p.parseExpr()
				d := node(ast.LocalVarDecl, iline, typ,
					node(ast.NameStore, nm.line, leaf(ast.Ident, nm.text, nm.line)), init)
				return node(ast.WithItem, iline, d)
			}); res != nil {
				stmt.Add(res)
			} else {
				stmt.Add(node(ast.WithItem, iline, p.parseExpr()))
			}
			if !p.acceptOp(";") {
				break
			}
		}
		p.eatOp(")")
	}
	stmt.Add(p.parseBlockBody())
	for p.atKw("catch") {
		cline := p.next().line
		p.eatOp("(")
		p.parseModifiers()
		h := node(ast.ExceptHandler, cline)
		typ := p.parseType()
		// Multi-catch: T1 | T2 e
		for p.acceptOp("|") {
			h.Add(typ)
			typ = p.parseType()
		}
		h.Add(typ)
		nm := p.eat(tokName, "")
		h.Add(node(ast.NameStore, nm.line, leaf(ast.Ident, nm.text, nm.line)))
		p.eatOp(")")
		h.Add(p.parseBlockBody())
		stmt.Add(h)
	}
	if p.atKw("finally") {
		fline := p.next().line
		stmt.Add(node(ast.Finally, fline, p.parseBlockBody()))
	}
	return stmt
}

func (p *parser) parseSwitch() *ast.Node {
	line := p.eatKw("switch").line
	p.eatOp("(")
	subject := p.parseExpr()
	p.eatOp(")")
	stmt := node(ast.Switch, line, subject)
	body := node(ast.Body, p.cur().line)
	p.eatOp("{")
	var cur *ast.Node
	for !p.atOp("}") && !p.at(tokEOF, "") {
		switch {
		case p.atKw("case"):
			cline := p.next().line
			cur = node(ast.CaseClause, cline, p.parseExpr())
			p.eatOp(":")
			body.Add(cur)
		case p.atKw("default"):
			cline := p.next().line
			cur = node(ast.CaseClause, cline)
			p.eatOp(":")
			body.Add(cur)
		default:
			if cur == nil {
				p.fail("statement outside case clause")
			}
			cur.Add(p.parseStatement())
		}
	}
	p.eatOp("}")
	stmt.Add(body)
	return stmt
}

// Expressions.

func (p *parser) parseExpr() *ast.Node { return p.parseAssignment() }

var javaAugOps = map[string]bool{
	"+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true, ">>>=": true,
}

func (p *parser) parseAssignment() *ast.Node {
	left := p.parseTernary()
	t := p.cur()
	if t.kind == tokOp && t.text == "=" {
		p.next()
		right := p.parseAssignment()
		return node(ast.Assign, t.line, toStore(left), right)
	}
	if t.kind == tokOp && javaAugOps[t.text] {
		p.next()
		right := p.parseAssignment()
		return node(ast.AugAssign, t.line, toStore(left), leaf(ast.OpTok, t.text, t.line), right)
	}
	return left
}

func toStore(n *ast.Node) *ast.Node {
	switch n.Kind {
	case ast.NameLoad:
		n.Kind = ast.NameStore
		n.Value = ast.NameStore.String()
	case ast.AttributeLoad:
		n.Kind = ast.AttributeStore
		n.Value = ast.AttributeStore.String()
	case ast.SubscriptLoad:
		n.Kind = ast.SubscriptStore
		n.Value = ast.SubscriptStore.String()
	}
	return n
}

func (p *parser) parseTernary() *ast.Node {
	cond := p.parseBinary(0)
	if p.atOp("?") {
		line := p.next().line
		a := p.parseExpr()
		p.eatOp(":")
		b := p.parseExpr()
		return node(ast.Ternary, line, cond, a, b)
	}
	return cond
}

// Binary precedence levels, loosest first. instanceof is handled at the
// relational level.
var javaBinLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", ">", "<=", ">=", "instanceof"},
	{"<<", ">>", ">>>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) *ast.Node {
	if level >= len(javaBinLevels) {
		return p.parseUnary()
	}
	left := p.parseBinary(level + 1)
	for {
		matched := ""
		t := p.cur()
		for _, op := range javaBinLevels[level] {
			if op == "instanceof" {
				if t.kind == tokKeyword && t.text == "instanceof" {
					matched = op
				}
			} else if t.kind == tokOp && t.text == op {
				matched = op
			}
			if matched != "" {
				break
			}
		}
		if matched == "" {
			return left
		}
		// Avoid misreading generics: `a < b` is fine; `List<` never reaches
		// here because types are parsed separately.
		op := p.next()
		if matched == "instanceof" {
			typ := p.parseType()
			left = node(ast.InstanceOf, op.line, left, typ)
			continue
		}
		right := p.parseBinary(level + 1)
		kind := ast.BinOp
		switch matched {
		case "||", "&&":
			kind = ast.BoolOp
		case "==", "!=", "<", ">", "<=", ">=":
			kind = ast.Compare
		}
		if kind == ast.Compare {
			left = node(ast.Compare, op.line, left, leaf(ast.OpTok, matched, op.line), right)
		} else {
			left = node(kind, op.line, leaf(ast.OpTok, matched, op.line), left, right)
		}
	}
}

func (p *parser) parseUnary() *ast.Node {
	t := p.cur()
	if t.kind == tokOp {
		switch t.text {
		case "+", "-", "!", "~":
			p.next()
			return node(ast.UnaryOp, t.line, leaf(ast.OpTok, t.text, t.line), p.parseUnary())
		case "++", "--":
			p.next()
			return node(ast.UnaryOp, t.line, leaf(ast.OpTok, t.text, t.line), p.parseUnary())
		case "(":
			// Cast or parenthesized expression.
			if c := p.speculate(func() *ast.Node {
				p.eatOp("(")
				typ := p.parseCastType()
				p.eatOp(")")
				operand := p.parseUnary()
				return node(ast.Cast, t.line, typ, operand)
			}); c != nil {
				return c
			}
		}
	}
	return p.parsePostfix(p.parsePrimary())
}

// parseCastType parses a type usable in a cast; to keep speculative parsing
// honest, a plain name is only a cast if the operand that follows could not
// continue an expression (heuristic: next token after ')' starts a primary).
func (p *parser) parseCastType() *ast.Node {
	t := p.cur()
	if t.kind == tokKeyword && primitiveTypes[t.text] && t.text != "var" {
		return p.parseType()
	}
	typ := p.parseType()
	// Reject `(a) + b`-style: after ')' must come a primary-start token.
	if !p.atOp(")") {
		p.fail("not a cast")
	}
	nt := p.peek(1)
	ok := nt.kind == tokName || nt.kind == tokNumber || nt.kind == tokString ||
		nt.kind == tokChar ||
		(nt.kind == tokKeyword && (nt.text == "this" || nt.text == "new" ||
			nt.text == "true" || nt.text == "false" || nt.text == "null" ||
			nt.text == "super")) ||
		(nt.kind == tokOp && (nt.text == "(" || nt.text == "!" || nt.text == "~"))
	if !ok {
		p.fail("not a cast")
	}
	return typ
}

func (p *parser) parsePostfix(expr *ast.Node) *ast.Node {
	for {
		t := p.cur()
		switch {
		case p.atOp("."):
			if p.peek(1).kind == tokName || (p.peek(1).kind == tokKeyword && (p.peek(1).text == "this" || p.peek(1).text == "class" || p.peek(1).text == "new" || p.peek(1).text == "super")) {
				p.next()
				nm := p.next()
				if p.atOp("<") { // explicit generic method call
					p.skipTypeParams()
				}
				expr = node(ast.AttributeLoad, t.line, expr,
					node(ast.Attr, nm.line, leaf(ast.Ident, nm.text, nm.line)))
			} else {
				return expr
			}
		case p.atOp("("):
			line := p.next().line
			call := node(ast.Call, line, expr)
			for !p.atOp(")") {
				call.Add(p.parseExpr())
				if !p.acceptOp(",") {
					break
				}
			}
			p.eatOp(")")
			expr = call
		case p.atOp("["):
			line := p.next().line
			idx := p.parseExpr()
			p.eatOp("]")
			expr = node(ast.SubscriptLoad, line, expr, node(ast.Index, line, idx))
		case p.atOp("::"):
			p.next()
			var nm token
			if p.atKw("new") {
				nm = p.next()
			} else {
				nm = p.eat(tokName, "")
			}
			expr = node(ast.AttributeLoad, t.line, expr,
				node(ast.Attr, nm.line, leaf(ast.Ident, nm.text, nm.line)))
		case p.atOp("++") || p.atOp("--"):
			p.next()
			expr = node(ast.UnaryOp, t.line, leaf(ast.OpTok, t.text, t.line), expr)
		default:
			return expr
		}
	}
}

func (p *parser) parsePrimary() *ast.Node {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.next()
		return node(ast.Num, t.line, leaf(ast.NumLit, t.text, t.line))
	case tokString:
		p.next()
		return node(ast.Str, t.line, leaf(ast.StrLit, t.text, t.line))
	case tokChar:
		p.next()
		return node(ast.Str, t.line, leaf(ast.StrLit, t.text, t.line))
	case tokName:
		// Lambda: name -> ...
		if p.peek(1).kind == tokOp && p.peek(1).text == "->" {
			return p.parseLambdaFromName()
		}
		p.next()
		return node(ast.NameLoad, t.line, leaf(ast.Ident, t.text, t.line))
	case tokKeyword:
		switch t.text {
		case "true", "false":
			p.next()
			return node(ast.Bool, t.line, leaf(ast.BoolLit, t.text, t.line))
		case "null":
			p.next()
			return node(ast.Null, t.line, leaf(ast.NullLit, "null", t.line))
		case "this":
			p.next()
			return node(ast.NameLoad, t.line, leaf(ast.Ident, "this", t.line))
		case "super":
			p.next()
			return node(ast.NameLoad, t.line, leaf(ast.Ident, "super", t.line))
		case "new":
			return p.parseNew()
		case "void":
			// void.class
			p.next()
			return node(ast.NameLoad, t.line, leaf(ast.Ident, "void", t.line))
		default:
			if primitiveTypes[t.text] {
				// int.class, int[]::new, etc.
				typ := p.parseType()
				return typ
			}
		}
	case tokOp:
		if t.text == "(" {
			// Lambda with parameter list, or parenthesized expression.
			if l := p.speculate(p.tryParenLambda); l != nil {
				return l
			}
			p.next()
			e := p.parseExpr()
			p.eatOp(")")
			return e
		}
	}
	p.fail("unexpected token %s %q", t.kind, t.text)
	return nil
}

func (p *parser) parseLambdaFromName() *ast.Node {
	nm := p.next()
	arrow := p.eatOp("->")
	params := node(ast.Params, nm.line,
		node(ast.Param, nm.line, leaf(ast.Ident, nm.text, nm.line)))
	return node(ast.Lambda, arrow.line, params, p.parseLambdaBody())
}

func (p *parser) tryParenLambda() *ast.Node {
	open := p.eatOp("(")
	params := node(ast.Params, open.line)
	for !p.atOp(")") {
		line := p.cur().line
		p.parseModifiers()
		// Typed or untyped parameter.
		if p.at(tokName, "") && (p.peek(1).text == "," || p.peek(1).text == ")") {
			nm := p.next()
			params.Add(node(ast.Param, line, leaf(ast.Ident, nm.text, nm.line)))
		} else {
			typ := p.parseType()
			nm := p.eat(tokName, "")
			params.Add(node(ast.Param, line, typ, leaf(ast.Ident, nm.text, nm.line)))
		}
		if !p.acceptOp(",") {
			break
		}
	}
	p.eatOp(")")
	if !p.atOp("->") {
		p.fail("not a lambda")
	}
	arrow := p.next()
	return node(ast.Lambda, arrow.line, params, p.parseLambdaBody())
}

func (p *parser) parseLambdaBody() *ast.Node {
	if p.atOp("{") {
		return p.parseBlockBody()
	}
	return p.parseExpr()
}

func (p *parser) parseNew() *ast.Node {
	line := p.eatKw("new").line
	typ := p.parseType()
	if strings.HasSuffix(typ.Children[0].Value, "[]") || p.atOp("[") {
		// Array creation: new T[expr]... or new T[]{...}
		arr := node(ast.New, line, typ)
		for p.acceptOp("[") {
			if !p.atOp("]") {
				arr.Add(p.parseExpr())
			}
			p.eatOp("]")
			typ.Children[0].Value += "[]"
		}
		if p.atOp("{") {
			arr.Add(p.parseArrayInit())
		}
		return arr
	}
	obj := node(ast.New, line, typ)
	p.eatOp("(")
	for !p.atOp(")") {
		obj.Add(p.parseExpr())
		if !p.acceptOp(",") {
			break
		}
	}
	p.eatOp(")")
	if p.atOp("{") {
		// Anonymous class body.
		obj.Add(p.parseClassBody(typ.Children[0].Value))
	}
	return obj
}
