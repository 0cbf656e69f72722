package pointsto

import (
	"math"
	"strconv"
	"strings"

	"namer/internal/ast"
)

// Options configures the analysis.
type Options struct {
	// K is the call-site sensitivity depth. The paper uses k=5.
	K int
	// MaxAvgContexts is the combinatorial-explosion guard: if the average
	// number of contexts per function exceeds it, the analysis falls back
	// to a context-insensitive run (the paper uses 8).
	MaxAvgContexts float64
}

// DefaultOptions returns the paper's configuration (k=5, fallback at 8
// contexts per method on average).
func DefaultOptions() Options {
	return Options{K: 5, MaxAvgContexts: 8}
}

// Stats reports what the analysis did.
type Stats struct {
	// Functions counts the entry points: every function and method,
	// plus the module body.
	Functions int
	// Contexts counts the (function, context) pairs whose facts were
	// generated.
	Contexts int
	// Facts counts the distinct Alloc, Move, Store and Load tuples the
	// rules were solved over, including the Alloc seed of the $none heap.
	Facts int
	// FellBack reports that the context explosion guard fired, so the
	// origins come from the context-insensitive (k=0) run.
	FellBack bool
}

// Result holds origin labels per identifier occurrence in the original
// file AST.
type Result struct {
	Info    *FileInfo
	Stats   Stats
	origins map[*ast.Node]string
}

// OriginOf returns the origin label decorating the given terminal node of
// the original file AST, if the analysis determined one precisely.
func (r *Result) OriginOf(n *ast.Node) (string, bool) {
	o, ok := r.origins[n]
	return o, ok
}

// OriginCount returns the number of decorated nodes.
func (r *Result) OriginCount() int { return len(r.origins) }

// AnalyzeFile runs the analysis with the paper's default options.
func AnalyzeFile(root *ast.Node, lang ast.Language) *Result {
	return Analyze(root, lang, DefaultOptions())
}

// Analyze runs the per-file points-to and value-origin analysis.
func Analyze(root *ast.Node, lang ast.Language, opts Options) *Result {
	if opts.K < 0 {
		opts.K = 0
	}
	if opts.MaxAvgContexts <= 0 {
		opts.MaxAvgContexts = 8
	}
	info := Collect(root, lang)
	a := newAnalyzer(root, info, opts.K)
	if !a.run(opts) {
		// Context explosion: fall back to a context-insensitive run.
		a = newAnalyzer(root, info, 0)
		a.run(Options{K: 0, MaxAvgContexts: opts.MaxAvgContexts * 1e9})
		a.fellBack = true
	}
	return a.result()
}

// task is one (function, context) pair awaiting fact generation.
type task struct {
	scope int32 // interned (fnID, ctx)
	fnID  string
	ctx   string
	node  *ast.Node
	class *ClassInfo
}

// Facts name variables, heap objects and fields by int32 IDs, each kind
// numbered densely from 0; no rule joins two kinds, so they share no
// space. A variable version is interned by (scope, name, version), where
// the scope is interned by (fnID, ctx); temporaries are fresh IDs.
type scopeKey struct{ fnID, ctx string }

type varKey struct {
	scope int32
	name  string
	ver   int32
}

// heapKey labels a heap object: kind 'I' is an instance of an in-file
// class, 'C' the class object, 'H' a site labeled by a type, callee or
// module, and 0 the $none seed.
type heapKey struct {
	kind byte
	name string
}

// origin is the label a variable pointing only to the object takes.
func (h heapKey) origin() string {
	if h.kind == 0 {
		return ""
	}
	return lastComponent(h.name)
}

// noVar is the variable ID of a value with no tracked origin.
const noVar int32 = -1

// occurrence notes that an identifier terminal holds a variable's value.
type occurrence struct {
	node *ast.Node
	v    int32
}

type analyzer struct {
	root     *ast.Node
	info     *FileInfo
	k        int
	queue    []task
	numFuncs int
	fellBack bool
	// calls lists, per entry point, the fnIDs of the in-file functions
	// its body calls, one per call site (k≥1 only).
	calls map[string][]string

	facts facts
	sol   *solver

	scopes   map[scopeKey]int32
	done     []bool // by scope: facts generated
	contexts int    // scopes done
	vars     map[varKey]int32
	numVars  int32
	heaps    map[heapKey]int32
	origins  []string // by heap ID
	fields   map[string]int32

	// occ lists the variables whose value identifier terminals hold; recv
	// lists the receivers' variables of Attr identifier terminals. direct
	// holds origins resolved without points-to (self, imports,
	// class-hierarchy lookups).
	occ    []occurrence
	recv   []occurrence
	direct map[*ast.Node]string

	moduleVars map[string]int32 // import alias -> alloc'ed variable
	classVars  map[string]int32 // in-file class -> variable of its class object
	siteID     int
	mergeNames []string // scratch of mergeScopes
}

func newAnalyzer(root *ast.Node, info *FileInfo, k int) *analyzer {
	a := &analyzer{
		root:       root,
		info:       info,
		k:          k,
		calls:      make(map[string][]string),
		scopes:     make(map[scopeKey]int32),
		vars:       make(map[varKey]int32),
		heaps:      make(map[heapKey]int32),
		fields:     make(map[string]int32),
		direct:     make(map[*ast.Node]string),
		moduleVars: make(map[string]int32),
		classVars:  make(map[string]int32),
	}
	// Stats.Facts counts this seed fact, and the counts the origin
	// oracle pins include it.
	a.facts.alloc = append(a.facts.alloc, [2]int32{a.newVar(), a.heap(0, "$none")})
	return a
}

// run generates facts for every entry point, expanding call contexts, and
// solves the points-to rules over them. It returns false if the context
// explosion guard fired.
//
// The guard is decided once the entry points, which come first in the
// queue, have been generated, before any call context is expanded. The
// decision is exact because every in-file call takes a fresh site, so
// with k≥1 each call creates a new (function, context) task, and the
// calls a body resolves depend on the file, the class and the body's own
// flow, never on the context. exceedsContexts therefore knows how many
// tasks the run will reach, and a run that would exceed the limit is
// abandoned without generating the facts it would throw away.
func (a *analyzer) run(opts Options) bool {
	// Entry points: every function and method, plus the module body.
	a.queue = a.queue[:0]
	a.enqueueEntryPoints()
	a.numFuncs = len(a.queue)
	if a.numFuncs == 0 {
		a.numFuncs = 1
	}
	limit := opts.MaxAvgContexts * float64(a.numFuncs)
	for dequeued := 0; len(a.queue) > 0; {
		t := a.queue[0]
		a.queue = a.queue[1:]
		if !a.done[t.scope] {
			a.done[t.scope] = true
			a.contexts++
			a.genFunction(t)
		}
		if dequeued++; dequeued == a.numFuncs && a.exceedsContexts(limit) {
			return false
		}
	}
	a.sol = solve(&a.facts, int(a.numVars))
	return true
}

// exceedsContexts reports whether the run will have generated more than
// limit (function, context) tasks when its queue drains. It is called
// once every entry point is done: each recorded call then adds the
// unfolded size of its callee, one task for the callee plus the unfolded
// sizes of the callee's own calls. A call cycle unfolds without end and
// always exceeds the limit. With k=0 no call is recorded, as calls reuse
// the entry points' contexts.
func (a *analyzer) exceedsContexts(limit float64) bool {
	// Sizes saturate at over, the first count above the limit.
	over := int(math.Min(limit, 1<<62)) + 1
	const unfolding = -1
	size := make(map[string]int, len(a.calls))
	var unfold func(fnID string) int
	unfold = func(fnID string) int {
		switch n, ok := size[fnID]; {
		case n == unfolding:
			return over
		case ok:
			return n
		}
		size[fnID] = unfolding
		n := 1
		for _, c := range a.calls[fnID] {
			if m := unfold(c); m < over-n {
				n += m
			} else {
				n = over
				break
			}
		}
		size[fnID] = n
		return n
	}
	total := a.contexts
	for _, callees := range a.calls {
		for _, c := range callees {
			if m := unfold(c); m < over-total {
				total += m
			} else {
				return true
			}
		}
	}
	return total >= over
}

func (a *analyzer) enqueueEntryPoints() {
	// Module body as a pseudo-function (Python top-level statements).
	a.enqueue("<module>", "", a.root, nil)
	for name, fn := range a.info.Funcs {
		a.enqueue(name, "", fn, nil)
	}
	for _, cls := range a.info.Classes {
		for mname, m := range cls.Methods {
			a.enqueue(cls.Name+"."+mname, "", m, cls)
		}
	}
}

// enqueue queues the task of (fnID, ctx) unless its facts are generated,
// and returns its scope ID.
func (a *analyzer) enqueue(fnID, ctx string, node *ast.Node, class *ClassInfo) int32 {
	id, ok := a.scopes[scopeKey{fnID, ctx}]
	if !ok {
		id = int32(len(a.done))
		a.scopes[scopeKey{fnID, ctx}] = id
		a.done = append(a.done, false)
	}
	if !a.done[id] {
		a.queue = append(a.queue, task{scope: id, fnID: fnID, ctx: ctx, node: node, class: class})
	}
	return id
}

func (a *analyzer) result() *Result {
	res := &Result{Info: a.info, origins: make(map[*ast.Node]string)}
	res.Stats = Stats{
		Functions: a.numFuncs,
		Contexts:  a.contexts,
		Facts:     len(a.facts.alloc) + len(a.facts.move) + len(a.facts.store) + len(a.facts.load),
		FellBack:  a.fellBack,
	}
	// A node takes the origin all its variables agree on; receivers win
	// over values.
	labels := make(map[*ast.Node]string)
	for _, occs := range [][]occurrence{a.occ, a.recv} {
		clear(labels)
		for _, o := range occs {
			l := a.originOf(o.v)
			if prev, ok := labels[o.node]; ok && prev != l {
				l = ""
			}
			labels[o.node] = l
		}
		for n, l := range labels {
			if l != "" {
				res.origins[n] = l
			}
		}
	}
	// Direct resolutions (self, imports, hierarchy lookups) win.
	for n, o := range a.direct {
		if o != "" {
			res.origins[n] = o
		}
	}
	return res
}

// originOf returns the origin of the one heap object an untainted
// variable points to, or "".
func (a *analyzer) originOf(v int32) string {
	if v == noVar || a.sol.tainted[v] {
		return ""
	}
	pts := &a.sol.pts
	p := pts.first(v)
	if p == 0 || pts.next[p-1] != 0 {
		return ""
	}
	return a.origins[pts.val[p-1]]
}

// scope is the per-(function, context) fact-generation state. A branch
// is an overlay on the scope it leaves: it holds only the versions and
// types written in the branch, with "" marking a type deleted there.
type scope struct {
	id     int32
	fnID   string
	ctx    string
	class  *ClassInfo
	parent *scope
	env    map[string]int32  // variable -> current version
	types  map[string]string // variable -> statically-known class
}

func (s *scope) branch() *scope {
	return &scope{id: s.id, fnID: s.fnID, ctx: s.ctx, class: s.class, parent: s}
}

func (s *scope) version(name string) (int32, bool) {
	for c := s; c != nil; c = c.parent {
		if v, ok := c.env[name]; ok {
			return v, true
		}
	}
	return 0, false
}

func (s *scope) setVersion(name string, v int32) {
	if s.env == nil {
		s.env = make(map[string]int32)
	}
	s.env[name] = v
}

func (s *scope) typeOf(name string) string {
	for c := s; c != nil; c = c.parent {
		if t, ok := c.types[name]; ok {
			return t
		}
	}
	return ""
}

// setType records the class of a variable; "" deletes it.
func (s *scope) setType(name, class string) {
	switch {
	case class == "" && s.typeOf(name) == "":
		return
	case class == "" && s.parent == nil:
		delete(s.types, name)
		return
	case s.types == nil:
		s.types = make(map[string]string)
	}
	s.types[name] = class
}

func (a *analyzer) varID(scope int32, name string, ver int32) int32 {
	k := varKey{scope, name, ver}
	if id, ok := a.vars[k]; ok {
		return id
	}
	id := a.newVar()
	a.vars[k] = id
	return id
}

// retVar is the variable receiving a scope's return values, version -1
// of the pseudo-variable $ret.
func (a *analyzer) retVar(scope int32) int32 {
	return a.varID(scope, "$ret", -1)
}

// newVar returns a fresh variable: a temporary, or a version on first use.
func (a *analyzer) newVar() int32 {
	a.numVars++
	return a.numVars - 1
}

func (a *analyzer) heap(kind byte, name string) int32 {
	k := heapKey{kind, name}
	if id, ok := a.heaps[k]; ok {
		return id
	}
	id := int32(len(a.origins))
	a.heaps[k] = id
	a.origins = append(a.origins, k.origin())
	return id
}

func (a *analyzer) field(name string) int32 {
	if id, ok := a.fields[name]; ok {
		return id
	}
	id := int32(len(a.fields))
	a.fields[name] = id
	return id
}

// genFunction emits facts for one (function, context).
func (a *analyzer) genFunction(t task) {
	s := &scope{id: t.scope, fnID: t.fnID, ctx: t.ctx, class: t.class}
	if t.fnID == "<module>" {
		a.genStmts(t.node.Children, s)
		return
	}
	// Bind formals at version 0.
	params := findChild(t.node, ast.Params)
	if params != nil {
		for i, p := range params.Children {
			name, typ := paramNameType(p)
			if name == "" {
				continue
			}
			s.setVersion(name, 0)
			key := a.varID(s.id, name, 0)
			switch {
			case i == 0 && t.class != nil && isSelfName(name):
				a.facts.alloc = append(a.facts.alloc, [2]int32{key, a.heap('I', t.class.Name)})
			case typ != "" && !isPrimitiveType(typ):
				// Java declared parameter type: fresh site of that type.
				a.facts.alloc = append(a.facts.alloc, [2]int32{key, a.heap('H', typ)})
				if _, ok := a.info.Classes[typ]; ok {
					s.setType(name, typ)
				}
			}
		}
	}
	// Java methods have an implicit this.
	if t.class != nil && a.info.Lang == ast.Java {
		s.setVersion("this", 0)
		a.facts.alloc = append(a.facts.alloc, [2]int32{a.varID(s.id, "this", 0), a.heap('I', t.class.Name)})
	}
	if body := findChild(t.node, ast.Body); body != nil {
		a.genStmts(body.Children, s)
	}
}

func paramNameType(p *ast.Node) (name, typ string) {
	switch p.Kind {
	case ast.Param, ast.DefaultParam, ast.VarArgParam, ast.KwArgParam:
		for _, c := range p.Children {
			switch c.Kind {
			case ast.Ident:
				if name == "" {
					name = c.Value
				}
			case ast.TypeRef:
				typ = strings.TrimSuffix(c.Children[0].Value, "[]")
			}
		}
	}
	return name, typ
}

func isPrimitiveType(t string) bool {
	switch t {
	case "boolean", "byte", "char", "short", "int", "long", "float",
		"double", "void", "var", "String":
		return true
	}
	return strings.HasSuffix(t, "[]")
}

func findChild(n *ast.Node, k ast.Kind) *ast.Node {
	for _, c := range n.Children {
		if c.Kind == k {
			return c
		}
	}
	return nil
}

func (a *analyzer) genStmts(stmts []*ast.Node, s *scope) {
	for _, st := range stmts {
		a.genStmt(st, s)
	}
}

func (a *analyzer) genStmt(n *ast.Node, s *scope) {
	switch n.Kind {
	case ast.Assign:
		val := a.genExpr(n.Children[len(n.Children)-1], s)
		typ := ""
		if v := n.Children[len(n.Children)-1]; v.Kind == ast.Call || v.Kind == ast.New {
			typ = a.staticTypeOf(v, s)
		}
		for _, tgt := range n.Children[:len(n.Children)-1] {
			a.bindTarget(tgt, val, typ, s)
		}
	case ast.AugAssign:
		a.genExpr(n.Children[2], s)
		if tgt := n.Children[0]; tgt.Kind == ast.NameStore {
			name := tgt.Children[0].Value
			old, bound := s.version(name)
			ver := verNext(s, name)
			s.setVersion(name, ver)
			key := a.varID(s.id, name, ver)
			if bound {
				a.facts.move = append(a.facts.move, [2]int32{key, a.varID(s.id, name, old)})
			}
			a.facts.modified = append(a.facts.modified, key)
			a.record(tgt, key, s)
		}
	case ast.AnnAssign:
		typ := ""
		if tr := findChild(n, ast.TypeRef); tr != nil {
			typ = exprNameOfTypeRef(tr)
		}
		val := noVar
		if len(n.Children) > 2 {
			val = a.genExpr(n.Children[len(n.Children)-1], s)
		}
		a.bindTargetTyped(n.Children[0], val, typ, s)
	case ast.LocalVarDecl, ast.FieldDecl:
		a.genVarDecl(n, s)
	case ast.ExprStmt:
		for _, c := range n.Children {
			a.genExpr(c, s)
		}
	case ast.Return:
		for _, c := range n.Children {
			if v := a.genExpr(c, s); v != noVar {
				a.facts.move = append(a.facts.move, [2]int32{a.retVar(s.id), v})
			}
		}
	case ast.If:
		a.genExpr(n.Children[0], s)
		var branches []*scope
		sawElse := false
		for _, c := range n.Children[1:] {
			switch c.Kind {
			case ast.Body:
				b := s.branch()
				a.genStmts(c.Children, b)
				branches = append(branches, b)
			case ast.Elif:
				b := s.branch()
				a.genExpr(c.Children[0], b)
				if body := findChild(c, ast.Body); body != nil {
					a.genStmts(body.Children, b)
				}
				branches = append(branches, b)
			case ast.Else:
				sawElse = true
				b := s.branch()
				if body := findChild(c, ast.Body); body != nil {
					a.genStmts(body.Children, b)
				}
				branches = append(branches, b)
			}
		}
		if !sawElse {
			branches = append(branches, s.branch()) // fall-through path
		}
		a.mergeScopes(s, branches)
	case ast.While, ast.DoWhile:
		for _, c := range n.Children {
			if c.Kind == ast.Body || c.Kind == ast.Else {
				b := s.branch()
				body := c
				if c.Kind == ast.Else {
					body = findChild(c, ast.Body)
				}
				if body != nil {
					a.genStmts(body.Children, b)
				}
				a.mergeScopes(s, []*scope{b, s.branch()})
			} else {
				a.genExpr(c, s)
			}
		}
	case ast.For:
		// Python: For(target, iter, Body, [Else]); Java: For(init..., cond,
		// update..., Body).
		if a.info.Lang == ast.Python && len(n.Children) >= 2 {
			iter := a.genExpr(n.Children[1], s)
			elem := a.newVar()
			if iter != noVar {
				a.facts.load = append(a.facts.load, [3]int32{elem, iter, a.field("[]")})
			}
			a.bindTarget(n.Children[0], elem, "", s)
			for _, c := range n.Children[2:] {
				a.genBodyBranch(c, s)
			}
			return
		}
		for _, c := range n.Children {
			switch {
			case c.Kind == ast.Body || c.Kind == ast.Else:
				a.genBodyBranch(c, s)
			case ast.IsStatementKind(c.Kind) || c.Kind == ast.Block:
				a.genStmt(c, s)
			default:
				a.genExpr(c, s)
			}
		}
	case ast.ForEach:
		// ForEach(TypeRef, NameStore, iter, Body)
		typ := exprNameOfTypeRef(n.Children[0])
		iter := a.genExpr(n.Children[2], s)
		elem := a.newVar()
		if iter != noVar {
			a.facts.load = append(a.facts.load, [3]int32{elem, iter, a.field("[]")})
		}
		a.bindTargetTyped(n.Children[1], elem, typ, s)
		for _, c := range n.Children[3:] {
			a.genBodyBranch(c, s)
		}
	case ast.Try:
		for _, c := range n.Children {
			switch c.Kind {
			case ast.Body:
				a.genStmts(c.Children, s)
			case ast.ExceptHandler:
				b := s.branch()
				a.genExceptHandler(c, b)
				a.mergeScopes(s, []*scope{b, s.branch()})
			case ast.Else, ast.Finally:
				if body := findChild(c, ast.Body); body != nil {
					a.genStmts(body.Children, s)
				}
			case ast.WithItem:
				a.genWithItem(c, s)
			}
		}
	case ast.With:
		for _, c := range n.Children {
			switch c.Kind {
			case ast.WithItem:
				a.genWithItem(c, s)
			case ast.Body:
				a.genStmts(c.Children, s)
			}
		}
	case ast.ExceptHandler:
		a.genExceptHandler(n, s)
	case ast.Switch:
		a.genExpr(n.Children[0], s)
		if body := findChild(n, ast.Body); body != nil {
			var branches []*scope
			for _, cc := range body.Children {
				if cc.Kind == ast.CaseClause {
					b := s.branch()
					for _, stc := range cc.Children {
						if ast.IsStatementKind(stc.Kind) || stc.Kind == ast.Block ||
							stc.Kind == ast.Break || stc.Kind == ast.Return {
							a.genStmt(stc, b)
						} else {
							a.genExpr(stc, b)
						}
					}
					branches = append(branches, b)
				}
			}
			branches = append(branches, s.branch())
			a.mergeScopes(s, branches)
		}
	case ast.Block, ast.Body, ast.SyncBlock, ast.LabeledStmt, ast.CaseClause:
		for _, c := range n.Children {
			if ast.IsStatementKind(c.Kind) || c.Kind == ast.Block || c.Kind == ast.Body {
				a.genStmt(c, s)
			} else {
				a.genExpr(c, s)
			}
		}
	case ast.Raise, ast.Throw, ast.Delete, ast.AssertStmt, ast.Yield:
		for _, c := range n.Children {
			a.genExpr(c, s)
		}
	case ast.FunctionDef, ast.CtorDef, ast.ClassDef, ast.InterfaceDef, ast.EnumDef:
		// Nested definitions are analyzed as their own entry points only
		// when collected at top level; nested ones are skipped here.
	case ast.Import, ast.ImportFrom, ast.Pass, ast.Break, ast.Continue,
		ast.Global, ast.Nonlocal, ast.EmptyStmt, ast.PackageDecl:
		// No dataflow.
	default:
		// Fallback: treat unknown statement-like nodes as expressions.
		a.genExpr(n, s)
	}
}

func (a *analyzer) genBodyBranch(c *ast.Node, s *scope) {
	body := c
	if c.Kind == ast.Else {
		body = findChild(c, ast.Body)
	}
	if body == nil {
		return
	}
	b := s.branch()
	a.genStmts(body.Children, b)
	a.mergeScopes(s, []*scope{b, s.branch()})
}

func (a *analyzer) genWithItem(c *ast.Node, s *scope) {
	val := noVar
	for _, ch := range c.Children {
		switch ch.Kind {
		case ast.NameStore, ast.TupleLit:
			a.bindTarget(ch, val, "", s)
		case ast.LocalVarDecl:
			a.genVarDecl(ch, s)
		default:
			val = a.genExpr(ch, s)
		}
	}
}

func (a *analyzer) genExceptHandler(c *ast.Node, s *scope) {
	var typ string
	for _, ch := range c.Children {
		switch ch.Kind {
		case ast.TypeRef:
			typ = exprNameOfTypeRef(ch)
		case ast.NameLoad, ast.AttributeLoad:
			typ = exprName(ch)
			a.genExpr(ch, s)
		case ast.NameStore:
			name := ch.Children[0].Value
			ver := verNext(s, name)
			s.setVersion(name, ver)
			key := a.varID(s.id, name, ver)
			if typ != "" {
				a.facts.alloc = append(a.facts.alloc, [2]int32{key, a.heap('H', typ)})
			}
			a.record(ch, key, s)
		case ast.Body:
			a.genStmts(ch.Children, s)
		}
	}
}

func (a *analyzer) genVarDecl(n *ast.Node, s *scope) {
	typ := ""
	var target *ast.Node
	val := noVar
	hasInit := false
	for _, c := range n.Children {
		switch c.Kind {
		case ast.TypeRef:
			typ = exprNameOfTypeRef(c)
		case ast.NameStore:
			target = c
		case ast.Modifiers:
		default:
			val = a.genExpr(c, s)
			hasInit = true
		}
	}
	if target == nil {
		return
	}
	if !hasInit || val == noVar {
		a.bindTargetTyped(target, noVar, typ, s)
		return
	}
	a.bindTargetTyped(target, val, typ, s)
}

// staticTypeOf returns the in-file class a constructor-like expression
// instantiates, if statically evident.
func (a *analyzer) staticTypeOf(n *ast.Node, s *scope) string {
	switch n.Kind {
	case ast.New:
		t := exprNameOfTypeRef(n.Children[0])
		if _, ok := a.info.Classes[t]; ok {
			return t
		}
	case ast.Call:
		if callee := n.Children[0]; callee.Kind == ast.NameLoad {
			name := callee.Children[0].Value
			if _, ok := a.info.Classes[name]; ok {
				return name
			}
		}
	}
	return ""
}

// bindTarget assigns valKey to a target expression (store context),
// creating a fresh variable version.
func (a *analyzer) bindTarget(tgt *ast.Node, valKey int32, typ string, s *scope) {
	a.bindTargetTyped(tgt, valKey, typ, s)
}

func (a *analyzer) bindTargetTyped(tgt *ast.Node, valKey int32, typ string, s *scope) {
	switch tgt.Kind {
	case ast.NameStore:
		name := tgt.Children[0].Value
		ver := verNext(s, name)
		s.setVersion(name, ver)
		key := a.varID(s.id, name, ver)
		if valKey != noVar {
			a.facts.move = append(a.facts.move, [2]int32{key, valKey})
		} else if typ != "" && !isPrimitiveType(typ) && a.info.Lang != ast.Python {
			// Declared type as fallback origin for statically typed
			// languages (Java, Go).
			a.facts.alloc = append(a.facts.alloc, [2]int32{key, a.heap('H', typ)})
		}
		if _, ok := a.info.Classes[typ]; !ok {
			typ = ""
		}
		s.setType(name, typ)
		a.record(tgt, key, s)
	case ast.AttributeStore:
		obj, attr := tgt.Children[0], attrName(tgt)
		objKey := noVar
		if obj.Kind == ast.NameLoad && len(obj.Children) == 1 &&
			isSelfName(obj.Children[0].Value) && s.class != nil {
			// Stores through self get the generic Object origin (the
			// paper's Example 3.8 decorates `self.<name1> = <name2>` with
			// Object, not the class name), so consistency patterns
			// generalize across classes. The attribute gets no origin.
			a.setDirect(obj.Children[0], "Object")
			name := obj.Children[0].Value
			if v, ok := s.version(name); ok {
				objKey = a.varID(s.id, name, v)
			}
		} else {
			objKey = a.genReceiver(obj, attrLeaf(tgt), attr, s)
		}
		if objKey != noVar && valKey != noVar {
			a.facts.store = append(a.facts.store, [3]int32{objKey, a.field(attr), valKey})
		}
	case ast.SubscriptStore:
		objKey := a.genExpr(tgt.Children[0], s)
		for _, c := range tgt.Children[1:] {
			a.genExpr(c, s)
		}
		if objKey != noVar && valKey != noVar {
			a.facts.store = append(a.facts.store, [3]int32{objKey, a.field("[]"), valKey})
		}
	case ast.TupleLit, ast.ListLit:
		for _, c := range tgt.Children {
			a.bindTarget(c, noVar, "", s)
		}
	case ast.StarArg:
		for _, c := range tgt.Children {
			a.bindTarget(c, noVar, "", s)
		}
	default:
		a.genExpr(tgt, s)
	}
}

func verNext(s *scope, name string) int32 {
	if v, ok := s.version(name); ok {
		return v + 1
	}
	return 1
}

// record notes that the identifier terminal under a name node holds the
// value of key (for later origin extraction).
func (a *analyzer) record(nameNode *ast.Node, key int32, s *scope) {
	if len(nameNode.Children) == 0 {
		return
	}
	id := nameNode.Children[0]
	if id.Kind != ast.Ident {
		return
	}
	if isSelfName(id.Value) && s.class != nil {
		a.setDirect(id, s.class.Name)
		return
	}
	a.occ = append(a.occ, occurrence{id, key})
}

func (a *analyzer) setDirect(n *ast.Node, origin string) {
	if origin != "" {
		a.direct[n] = origin
	}
}

func attrLeaf(n *ast.Node) *ast.Node {
	if len(n.Children) == 2 && n.Children[1].Kind == ast.Attr &&
		len(n.Children[1].Children) == 1 {
		return n.Children[1].Children[0]
	}
	return nil
}

// genReceiver evaluates the receiver of an attribute access/call and
// handles origin decoration of both the receiver identifier and the
// attribute identifier. attrID may be nil.
func (a *analyzer) genReceiver(obj *ast.Node, attrID *ast.Node, attr string, s *scope) int32 {
	if obj.Kind == ast.NameLoad && len(obj.Children) == 1 {
		name := obj.Children[0].Value
		if isSelfName(name) && s.class != nil {
			// Fig. 2: self and the attribute both get the defining class.
			def := a.info.DefiningClass(s.class.Name, attr)
			a.setDirect(obj.Children[0], def)
			if attrID != nil {
				a.setDirect(attrID, def)
			}
			if v, ok := s.version(name); ok {
				return a.varID(s.id, name, v)
			}
			// self outside a parameter binding (module scope): synthesize.
			s.setVersion(name, 0)
			key := a.varID(s.id, name, 0)
			a.facts.alloc = append(a.facts.alloc, [2]int32{key, a.heap('I', s.class.Name)})
			return key
		}
		if mod, ok := a.info.Imports[name]; ok {
			if _, bound := s.version(name); !bound {
				key := a.moduleVar(name, mod)
				a.setDirect(obj.Children[0], lastComponent(mod))
				if attrID != nil {
					a.setDirect(attrID, lastComponent(mod))
				}
				return key
			}
		}
		// Statically-typed in-file receiver: hierarchy lookup for the attr.
		if t := s.typeOf(name); t != "" && attrID != nil {
			a.setDirect(attrID, a.info.DefiningClass(t, attr))
		}
	}
	key := a.genExpr(obj, s)
	if attrID != nil && key != noVar {
		a.recv = append(a.recv, occurrence{attrID, key})
	}
	return key
}

func (a *analyzer) moduleVar(alias, mod string) int32 {
	if v, ok := a.moduleVars[alias]; ok {
		return v
	}
	v := a.newVar()
	a.facts.alloc = append(a.facts.alloc, [2]int32{v, a.heap('H', mod)})
	a.moduleVars[alias] = v
	return v
}

func (a *analyzer) classVar(name string) int32 {
	if v, ok := a.classVars[name]; ok {
		return v
	}
	v := a.newVar()
	a.facts.alloc = append(a.facts.alloc, [2]int32{v, a.heap('C', name)})
	a.classVars[name] = v
	return v
}

// genExpr emits facts for an expression and returns the variable holding
// its value (noVar when the value has no tracked origin).
func (a *analyzer) genExpr(n *ast.Node, s *scope) int32 {
	if n == nil {
		return noVar
	}
	switch n.Kind {
	case ast.NameLoad:
		name := n.Children[0].Value
		if isSelfName(name) && s.class != nil {
			a.setDirect(n.Children[0], s.class.Name)
			if v, ok := s.version(name); ok {
				return a.varID(s.id, name, v)
			}
			return noVar
		}
		if v, ok := s.version(name); ok {
			key := a.varID(s.id, name, v)
			a.occ = append(a.occ, occurrence{n.Children[0], key})
			return key
		}
		if mod, ok := a.info.Imports[name]; ok {
			a.setDirect(n.Children[0], lastComponent(mod))
			return a.moduleVar(name, mod)
		}
		if _, ok := a.info.Classes[name]; ok {
			return a.classVar(name)
		}
		return noVar
	case ast.Call:
		return a.genCall(n, s)
	case ast.New:
		return a.genNew(n, s)
	case ast.AttributeLoad:
		objKey := a.genReceiver(n.Children[0], attrLeaf(n), attrName(n), s)
		ret := a.newVar()
		if objKey != noVar {
			a.facts.load = append(a.facts.load, [3]int32{ret, objKey, a.field(attrName(n))})
		}
		return ret
	case ast.SubscriptLoad:
		objKey := a.genExpr(n.Children[0], s)
		for _, c := range n.Children[1:] {
			a.genExpr(c, s)
		}
		ret := a.newVar()
		if objKey != noVar {
			a.facts.load = append(a.facts.load, [3]int32{ret, objKey, a.field("[]")})
		}
		return ret
	case ast.Ternary:
		// value if cond else other / cond ? a : b — merge both arms.
		ret := a.newVar()
		for _, c := range n.Children {
			if v := a.genExpr(c, s); v != noVar {
				a.facts.move = append(a.facts.move, [2]int32{ret, v})
			}
		}
		return ret
	case ast.Cast:
		typ := exprNameOfTypeRef(n.Children[0])
		v := a.genExpr(n.Children[1], s)
		if v != noVar {
			return v
		}
		if typ != "" && !isPrimitiveType(typ) {
			ret := a.newVar()
			a.facts.alloc = append(a.facts.alloc, [2]int32{ret, a.heap('H', typ)})
			return ret
		}
		return noVar
	case ast.Assign, ast.AugAssign:
		// Assignment used in expression position (Java).
		a.genStmt(n, s)
		return noVar
	case ast.Index, ast.SliceRange, ast.Keyword, ast.StarArg,
		ast.DoubleStarArg, ast.DictItem, ast.Comprehension, ast.CompFor,
		ast.CompIf, ast.Lambda, ast.ListLit, ast.TupleLit, ast.DictLit,
		ast.SetLit, ast.ArrayLit, ast.BinOp, ast.UnaryOp, ast.BoolOp,
		ast.Compare, ast.InstanceOf, ast.Yield:
		for _, c := range n.Children {
			a.genExpr(c, s)
		}
		return noVar
	case ast.Num, ast.Str, ast.Bool, ast.Null, ast.TypeRef, ast.Ident,
		ast.OpTok, ast.NumLit, ast.StrLit, ast.BoolLit, ast.NullLit:
		return noVar
	}
	for _, c := range n.Children {
		a.genExpr(c, s)
	}
	return noVar
}

// genCall handles Call nodes: direct calls, constructor calls, and method
// calls with in-file resolution and k-call-site context expansion.
func (a *analyzer) genCall(n *ast.Node, s *scope) int32 {
	a.siteID++
	site := a.siteID
	callee := n.Children[0]
	args := n.Children[1:]
	var argKeys []int32
	for _, arg := range args {
		switch arg.Kind {
		case ast.Keyword:
			if len(arg.Children) == 2 {
				argKeys = append(argKeys, a.genExpr(arg.Children[1], s))
			}
		case ast.StarArg, ast.DoubleStarArg:
			if len(arg.Children) == 1 {
				a.genExpr(arg.Children[0], s)
			}
			argKeys = append(argKeys, noVar)
		default:
			argKeys = append(argKeys, a.genExpr(arg, s))
		}
	}

	switch callee.Kind {
	case ast.NameLoad:
		name := callee.Children[0].Value
		if cls, ok := a.info.Classes[name]; ok {
			// Constructor call to an in-file class.
			ret := a.newVar()
			a.facts.alloc = append(a.facts.alloc, [2]int32{ret, a.heap('I', name)})
			if init, ok := cls.Methods["__init__"]; ok {
				a.callInFile(cls.Name+".__init__", init, cls, ret, argKeys, site, s)
			} else if ctor, ok := cls.Methods[name]; ok {
				a.callInFile(cls.Name+"."+name, ctor, cls, ret, argKeys, site, s)
			}
			return ret
		}
		if fn, ok := a.info.Funcs[name]; ok {
			return a.callInFile(name, fn, nil, noVar, argKeys, site, s)
		}
		// External function: fresh allocation site labeled by callee.
		ret := a.newVar()
		a.facts.alloc = append(a.facts.alloc, [2]int32{ret, a.heap('H', name)})
		return ret
	case ast.AttributeLoad:
		obj, attr := callee.Children[0], attrName(callee)
		aID := attrLeaf(callee)
		// self.method() resolved through the in-file hierarchy.
		if obj.Kind == ast.NameLoad && isSelfName(obj.Children[0].Value) && s.class != nil {
			def := a.info.DefiningClass(s.class.Name, attr)
			a.setDirect(obj.Children[0], def)
			if aID != nil {
				a.setDirect(aID, def)
			}
			selfKey := noVar
			if v, ok := s.version(obj.Children[0].Value); ok {
				selfKey = a.varID(s.id, obj.Children[0].Value, v)
			}
			if cls, m := a.info.ResolveMethod(s.class.Name, attr); cls != nil {
				return a.callInFile(cls.Name+"."+attr, m, cls, selfKey, argKeys, site, s)
			}
			ret := a.newVar()
			a.facts.alloc = append(a.facts.alloc, [2]int32{ret, a.heap('H', attr)})
			return ret
		}
		objKey := a.genReceiver(obj, aID, attr, s)
		// Statically-typed in-file receiver: resolve the method.
		if obj.Kind == ast.NameLoad {
			if t := s.typeOf(obj.Children[0].Value); t != "" {
				if cls, m := a.info.ResolveMethod(t, attr); cls != nil {
					return a.callInFile(cls.Name+"."+attr, m, cls, objKey, argKeys, site, s)
				}
			}
		}
		ret := a.newVar()
		a.facts.alloc = append(a.facts.alloc, [2]int32{ret, a.heap('H', attr)})
		return ret
	default:
		a.genExpr(callee, s)
		return a.newVar()
	}
}

func (a *analyzer) genNew(n *ast.Node, s *scope) int32 {
	typ := exprNameOfTypeRef(n.Children[0])
	base := strings.TrimSuffix(typ, "[]")
	var argKeys []int32
	for _, arg := range n.Children[1:] {
		argKeys = append(argKeys, a.genExpr(arg, s))
	}
	ret := a.newVar()
	if cls, ok := a.info.Classes[base]; ok {
		a.facts.alloc = append(a.facts.alloc, [2]int32{ret, a.heap('I', base)})
		a.siteID++
		if ctor, ok := cls.Methods[base]; ok {
			a.callInFile(base+"."+base, ctor, cls, ret, argKeys, a.siteID, s)
		}
	} else {
		a.facts.alloc = append(a.facts.alloc, [2]int32{ret, a.heap('H', base)})
	}
	return ret
}

// callInFile wires an interprocedural call to a function or method defined
// in the file, pushing a k-limited call-site context, and returns the
// variable receiving the return value.
func (a *analyzer) callInFile(fnID string, fnNode *ast.Node, cls *ClassInfo,
	selfKey int32, argKeys []int32, site int, s *scope) int32 {
	newCtx := pushContext(s.ctx, site, a.k)
	if a.k > 0 && s.ctx == "" {
		a.calls[s.fnID] = append(a.calls[s.fnID], fnID)
	}
	callee := a.enqueue(fnID, newCtx, fnNode, cls)
	params := findChild(fnNode, ast.Params)
	pi := 0
	if params != nil {
		for i, p := range params.Children {
			name, _ := paramNameType(p)
			if name == "" {
				continue
			}
			formal := a.varID(callee, name, 0)
			if i == 0 && cls != nil && isSelfName(name) && a.info.Lang == ast.Python {
				if selfKey != noVar {
					a.facts.move = append(a.facts.move, [2]int32{formal, selfKey})
				}
				continue
			}
			if pi < len(argKeys) && argKeys[pi] != noVar {
				a.facts.move = append(a.facts.move, [2]int32{formal, argKeys[pi]})
			}
			pi++
		}
	}
	if cls != nil && a.info.Lang == ast.Java && selfKey != noVar {
		a.facts.move = append(a.facts.move, [2]int32{a.varID(callee, "this", 0), selfKey})
	}
	ret := a.newVar()
	a.facts.move = append(a.facts.move, [2]int32{ret, a.retVar(callee)})
	return ret
}

// pushContext appends a call site to a context string, keeping at most k
// sites (most recent last).
func pushContext(ctx string, site, k int) string {
	if k <= 0 {
		return ""
	}
	if ctx == "" {
		return strconv.Itoa(site)
	}
	ctx += "|" + strconv.Itoa(site)
	for i, seps := len(ctx)-1, 0; i >= 0; i-- {
		if ctx[i] == '|' {
			if seps++; seps == k {
				return ctx[i+1:]
			}
		}
	}
	return ctx
}

func exprNameOfTypeRef(n *ast.Node) string {
	if n.Kind == ast.TypeRef && len(n.Children) == 1 {
		return strings.TrimSuffix(n.Children[0].Value, "[]")
	}
	return exprName(n)
}

func (a *analyzer) mergeScopes(s *scope, branches []*scope) {
	// Union of the variables the branches assigned: each branch is an
	// overlay on s, so only its own writes can differ from s (where an
	// unbound variable reads as version 0).
	names := a.mergeNames[:0]
	for i, b := range branches {
	written:
		for n, v := range b.env {
			sv, _ := s.version(n)
			if v == sv {
				continue
			}
			for _, prev := range branches[:i] {
				if pv, ok := prev.env[n]; ok && pv != sv {
					continue written
				}
			}
			names = append(names, n)
		}
	}
	a.mergeNames = names
	for _, n := range names {
		// The merged version must exceed every branch's version (branches
		// share the function-scoped key space).
		merged := verNext(s, n)
		for _, b := range branches {
			if v, ok := b.version(n); ok && v >= merged {
				merged = v + 1
			}
		}
		to := a.varID(s.id, n, merged)
		for _, b := range branches {
			if v, ok := b.version(n); ok {
				a.facts.move = append(a.facts.move, [2]int32{to, a.varID(s.id, n, v)})
			}
		}
		s.setVersion(n, merged)
		// Types diverge: keep only if all branches agree.
		t := ""
		agree := true
		for _, b := range branches {
			bt := b.typeOf(n)
			if t == "" {
				t = bt
			} else if bt != t {
				agree = false
			}
		}
		if !agree {
			t = ""
		}
		s.setType(n, t)
	}
}
