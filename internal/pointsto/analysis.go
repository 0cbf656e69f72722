package pointsto

import (
	"math"
	"strconv"
	"strings"

	"namer/internal/ast"
	"namer/internal/datalog"
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
	Functions int
	Contexts  int
	Facts     int
	FellBack  bool
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
	fnID  string
	ctx   string
	node  *ast.Node
	class *ClassInfo
}

type analyzer struct {
	root     *ast.Node
	info     *FileInfo
	k        int
	eng      *datalog.Engine
	tmp      int
	queue    []task
	done     map[string]bool // fnID + "@" + ctx
	numFuncs int
	fellBack bool
	// calls lists, per entry point, the fnIDs of the in-file functions
	// its body calls, one per call site (k≥1 only).
	calls map[string][]string

	// occ maps identifier terminals to the variable keys holding their
	// value; recv maps Attr identifier terminals to the variable keys of
	// their receivers. direct holds origins resolved without points-to
	// (self, imports, class-hierarchy lookups).
	occ    map[*ast.Node][]string
	recv   map[*ast.Node][]string
	direct map[*ast.Node]string

	moduleKeys map[string]string // import alias -> alloc'ed key
	siteID     int
}

const rules = `
	VarPointsTo(V, H) :- Alloc(V, H).
	VarPointsTo(V, H) :- Move(V, W), VarPointsTo(W, H).
	FieldPointsTo(H, F, H2) :- Store(V, F, W), VarPointsTo(V, H), VarPointsTo(W, H2).
	VarPointsTo(V, H2) :- Load(V, W, F), VarPointsTo(W, H1), FieldPointsTo(H1, F, H2).
	Tainted(V) :- Modified(V).
	Tainted(V) :- Move(V, W), Tainted(W).
`

func newAnalyzer(root *ast.Node, info *FileInfo, k int) *analyzer {
	a := &analyzer{
		root:       root,
		info:       info,
		k:          k,
		eng:        datalog.NewEngine(),
		done:       make(map[string]bool),
		calls:      make(map[string][]string),
		occ:        make(map[*ast.Node][]string),
		recv:       make(map[*ast.Node][]string),
		direct:     make(map[*ast.Node]string),
		moduleKeys: make(map[string]string),
	}
	a.eng.MustParse(rules)
	// Seed relations referenced before any fact exists.
	a.eng.Assert("Alloc", "$none", "$none")
	a.eng.Assert("Modified", "$none")
	return a
}

// run generates facts for every entry point, expanding call contexts, and
// evaluates the Datalog program. It returns false if the context explosion
// guard fired.
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
		if key := t.fnID + "@" + t.ctx; !a.done[key] {
			a.done[key] = true
			a.genFunction(t)
		}
		if dequeued++; dequeued == a.numFuncs && a.exceedsContexts(limit) {
			return false
		}
	}
	if err := a.eng.Run(); err != nil {
		// The rule set is fixed and stratifiable; an error here is a bug.
		panic("pointsto: " + err.Error())
	}
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
	total := len(a.done)
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
	a.queue = append(a.queue, task{fnID: "<module>", ctx: "", node: a.root})
	for name, fn := range a.info.Funcs {
		a.queue = append(a.queue, task{fnID: name, ctx: "", node: fn})
	}
	for _, cls := range a.info.Classes {
		for mname, m := range cls.Methods {
			a.queue = append(a.queue, task{fnID: cls.Name + "." + mname, ctx: "", node: m, class: cls})
		}
	}
}

func (a *analyzer) result() *Result {
	res := &Result{Info: a.info, origins: make(map[*ast.Node]string)}
	res.Stats = Stats{
		Functions: a.numFuncs,
		Contexts:  len(a.done),
		Facts:     a.eng.Count("Alloc") + a.eng.Count("Move") + a.eng.Count("Store") + a.eng.Count("Load"),
		FellBack:  a.fellBack,
	}
	cache := make(map[string]string)
	originOfKeys := func(keys []string) string {
		label := ""
		for _, k := range keys {
			if len(a.eng.Query("Tainted", k)) > 0 {
				return ""
			}
			ck, ok := cache[k]
			if !ok {
				seen := map[string]bool{}
				for _, t := range a.eng.Query("VarPointsTo", k, "_") {
					seen[t[1]] = true
				}
				ck = ""
				if len(seen) == 1 {
					for h := range seen {
						ck = stripHeapLabel(h)
					}
				}
				cache[k] = ck
			}
			if ck == "" {
				return ""
			}
			if label == "" {
				label = ck
			} else if label != ck {
				return ""
			}
		}
		return label
	}
	for n, keys := range a.occ {
		if o := originOfKeys(keys); o != "" {
			res.origins[n] = o
		}
	}
	for n, keys := range a.recv {
		if o := originOfKeys(keys); o != "" {
			res.origins[n] = o
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

func stripHeapLabel(h string) string {
	for _, p := range []string{"I:", "H:", "C:"} {
		if strings.HasPrefix(h, p) {
			return lastComponent(h[len(p):])
		}
	}
	if h == "$none" {
		return ""
	}
	return lastComponent(h)
}

// scope is the per-(function, context) fact-generation state.
type scope struct {
	fnID  string
	ctx   string
	class *ClassInfo
	env   map[string]int    // variable -> current version
	types map[string]string // variable -> statically-known class
}

func (s *scope) clone() *scope {
	c := &scope{fnID: s.fnID, ctx: s.ctx, class: s.class,
		env: make(map[string]int, len(s.env)), types: make(map[string]string, len(s.types))}
	for k, v := range s.env {
		c.env[k] = v
	}
	for k, v := range s.types {
		c.types[k] = v
	}
	return c
}

func (a *analyzer) varKey(s *scope, name string, ver int) string {
	return s.ctx + "/" + s.fnID + "/" + name + "#" + strconv.Itoa(ver)
}

func (a *analyzer) retKey(fnID, ctx string) string {
	return ctx + "/" + fnID + "/$ret"
}

func (a *analyzer) tmpKey(s *scope) string {
	a.tmp++
	return s.ctx + "/" + s.fnID + "/$t" + strconv.Itoa(a.tmp)
}

// genFunction emits facts for one (function, context).
func (a *analyzer) genFunction(t task) {
	s := &scope{fnID: t.fnID, ctx: t.ctx, class: t.class,
		env: make(map[string]int), types: make(map[string]string)}
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
			s.env[name] = 0
			key := a.varKey(s, name, 0)
			switch {
			case i == 0 && t.class != nil && isSelfName(name):
				a.eng.Assert("Alloc", key, "I:"+t.class.Name)
			case typ != "" && !isPrimitiveType(typ):
				// Java declared parameter type: fresh site of that type.
				a.eng.Assert("Alloc", key, "H:"+typ)
				if _, ok := a.info.Classes[typ]; ok {
					s.types[name] = typ
				}
			}
		}
	}
	// Java methods have an implicit this.
	if t.class != nil && a.info.Lang == ast.Java {
		s.env["this"] = 0
		a.eng.Assert("Alloc", a.varKey(s, "this", 0), "I:"+t.class.Name)
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
			old, bound := s.env[name]
			s.env[name] = verNext(s, name)
			key := a.varKey(s, name, s.env[name])
			if bound {
				a.eng.Assert("Move", key, a.varKey(s, name, old))
			}
			a.eng.Assert("Modified", key)
			a.record(tgt, key, s)
		}
	case ast.AnnAssign:
		typ := ""
		if tr := findChild(n, ast.TypeRef); tr != nil {
			typ = exprNameOfTypeRef(tr)
		}
		val := ""
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
			if v := a.genExpr(c, s); v != "" {
				a.eng.Assert("Move", a.retKey(s.fnID, s.ctx), v)
			}
		}
	case ast.If:
		a.genExpr(n.Children[0], s)
		var branches []*scope
		sawElse := false
		for _, c := range n.Children[1:] {
			switch c.Kind {
			case ast.Body:
				b := s.clone()
				a.genStmts(c.Children, b)
				branches = append(branches, b)
			case ast.Elif:
				b := s.clone()
				a.genExpr(c.Children[0], b)
				if body := findChild(c, ast.Body); body != nil {
					a.genStmts(body.Children, b)
				}
				branches = append(branches, b)
			case ast.Else:
				sawElse = true
				b := s.clone()
				if body := findChild(c, ast.Body); body != nil {
					a.genStmts(body.Children, b)
				}
				branches = append(branches, b)
			}
		}
		if !sawElse {
			branches = append(branches, s.clone()) // fall-through path
		}
		a.mergeScopes(s, branches)
	case ast.While, ast.DoWhile:
		for _, c := range n.Children {
			if c.Kind == ast.Body || c.Kind == ast.Else {
				b := s.clone()
				body := c
				if c.Kind == ast.Else {
					body = findChild(c, ast.Body)
				}
				if body != nil {
					a.genStmts(body.Children, b)
				}
				a.mergeScopes(s, []*scope{b, s.clone()})
			} else {
				a.genExpr(c, s)
			}
		}
	case ast.For:
		// Python: For(target, iter, Body, [Else]); Java: For(init..., cond,
		// update..., Body).
		if a.info.Lang == ast.Python && len(n.Children) >= 2 {
			iter := a.genExpr(n.Children[1], s)
			elem := a.tmpKey(s)
			if iter != "" {
				a.eng.Assert("Load", elem, iter, "[]")
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
		elem := a.tmpKey(s)
		if iter != "" {
			a.eng.Assert("Load", elem, iter, "[]")
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
				b := s.clone()
				a.genExceptHandler(c, b)
				a.mergeScopes(s, []*scope{b, s.clone()})
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
					b := s.clone()
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
			branches = append(branches, s.clone())
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
	b := s.clone()
	a.genStmts(body.Children, b)
	a.mergeScopes(s, []*scope{b, s.clone()})
}

func (a *analyzer) genWithItem(c *ast.Node, s *scope) {
	val := ""
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
			s.env[name] = verNext(s, name)
			key := a.varKey(s, name, s.env[name])
			if typ != "" {
				a.eng.Assert("Alloc", key, "H:"+typ)
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
	val := ""
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
	if !hasInit || val == "" {
		a.bindTargetTyped(target, "", typ, s)
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
func (a *analyzer) bindTarget(tgt *ast.Node, valKey, typ string, s *scope) {
	a.bindTargetTyped(tgt, valKey, typ, s)
}

func (a *analyzer) bindTargetTyped(tgt *ast.Node, valKey, typ string, s *scope) {
	switch tgt.Kind {
	case ast.NameStore:
		name := tgt.Children[0].Value
		s.env[name] = verNext(s, name)
		key := a.varKey(s, name, s.env[name])
		if valKey != "" {
			a.eng.Assert("Move", key, valKey)
		} else if typ != "" && !isPrimitiveType(typ) && a.info.Lang != ast.Python {
			// Declared type as fallback origin for statically typed
			// languages (Java, Go).
			a.eng.Assert("Alloc", key, "H:"+typ)
		}
		if typ != "" {
			if _, ok := a.info.Classes[typ]; ok {
				s.types[name] = typ
			} else {
				delete(s.types, name)
			}
		} else {
			delete(s.types, name)
		}
		a.record(tgt, key, s)
	case ast.AttributeStore:
		obj, attr := tgt.Children[0], attrName(tgt)
		var objKey string
		if obj.Kind == ast.NameLoad && len(obj.Children) == 1 &&
			isSelfName(obj.Children[0].Value) && s.class != nil {
			// Stores through self get the generic Object origin (the
			// paper's Example 3.8 decorates `self.<name1> = <name2>` with
			// Object, not the class name), so consistency patterns
			// generalize across classes. The attribute gets no origin.
			a.setDirect(obj.Children[0], "Object")
			name := obj.Children[0].Value
			if v, ok := s.env[name]; ok {
				objKey = a.varKey(s, name, v)
			}
		} else {
			objKey = a.genReceiver(obj, attrLeaf(tgt), attr, s)
		}
		if objKey != "" && valKey != "" {
			a.eng.Assert("Store", objKey, attr, valKey)
		}
	case ast.SubscriptStore:
		objKey := a.genExpr(tgt.Children[0], s)
		for _, c := range tgt.Children[1:] {
			a.genExpr(c, s)
		}
		if objKey != "" && valKey != "" {
			a.eng.Assert("Store", objKey, "[]", valKey)
		}
	case ast.TupleLit, ast.ListLit:
		for _, c := range tgt.Children {
			a.bindTarget(c, "", "", s)
		}
	case ast.StarArg:
		for _, c := range tgt.Children {
			a.bindTarget(c, "", "", s)
		}
	default:
		a.genExpr(tgt, s)
	}
}

func verNext(s *scope, name string) int {
	if v, ok := s.env[name]; ok {
		return v + 1
	}
	return 1
}

// record notes that the identifier terminal under a name node holds the
// value of key (for later origin extraction).
func (a *analyzer) record(nameNode *ast.Node, key string, s *scope) {
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
	a.occ[id] = append(a.occ[id], key)
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
func (a *analyzer) genReceiver(obj *ast.Node, attrID *ast.Node, attr string, s *scope) string {
	if obj.Kind == ast.NameLoad && len(obj.Children) == 1 {
		name := obj.Children[0].Value
		if isSelfName(name) && s.class != nil {
			// Fig. 2: self and the attribute both get the defining class.
			def := a.info.DefiningClass(s.class.Name, attr)
			a.setDirect(obj.Children[0], def)
			if attrID != nil {
				a.setDirect(attrID, def)
			}
			if v, ok := s.env[name]; ok {
				return a.varKey(s, name, v)
			}
			// self outside a parameter binding (module scope): synthesize.
			s.env[name] = 0
			key := a.varKey(s, name, 0)
			a.eng.Assert("Alloc", key, "I:"+s.class.Name)
			return key
		}
		if mod, ok := a.info.Imports[name]; ok {
			if _, bound := s.env[name]; !bound {
				key := a.moduleKey(name, mod)
				a.setDirect(obj.Children[0], lastComponent(mod))
				if attrID != nil {
					a.setDirect(attrID, lastComponent(mod))
				}
				return key
			}
		}
		// Statically-typed in-file receiver: hierarchy lookup for the attr.
		if t, ok := s.types[name]; ok && attrID != nil {
			a.setDirect(attrID, a.info.DefiningClass(t, attr))
		}
	}
	key := a.genExpr(obj, s)
	if attrID != nil && key != "" {
		a.recv[attrID] = append(a.recv[attrID], key)
	}
	return key
}

func (a *analyzer) moduleKey(alias, mod string) string {
	if k, ok := a.moduleKeys[alias]; ok {
		return k
	}
	k := "/import/" + alias
	a.eng.Assert("Alloc", k, "H:"+mod)
	a.moduleKeys[alias] = k
	return k
}

// genExpr emits facts for an expression and returns the variable key
// holding its value ("" when the value has no tracked origin).
func (a *analyzer) genExpr(n *ast.Node, s *scope) string {
	if n == nil {
		return ""
	}
	switch n.Kind {
	case ast.NameLoad:
		name := n.Children[0].Value
		if isSelfName(name) && s.class != nil {
			a.setDirect(n.Children[0], s.class.Name)
			if v, ok := s.env[name]; ok {
				return a.varKey(s, name, v)
			}
			return ""
		}
		if v, ok := s.env[name]; ok {
			key := a.varKey(s, name, v)
			a.occ[n.Children[0]] = append(a.occ[n.Children[0]], key)
			return key
		}
		if mod, ok := a.info.Imports[name]; ok {
			a.setDirect(n.Children[0], lastComponent(mod))
			return a.moduleKey(name, mod)
		}
		if _, ok := a.info.Classes[name]; ok {
			key := "/class/" + name
			a.eng.Assert("Alloc", key, "C:"+name)
			return key
		}
		return ""
	case ast.Call:
		return a.genCall(n, s)
	case ast.New:
		return a.genNew(n, s)
	case ast.AttributeLoad:
		objKey := a.genReceiver(n.Children[0], attrLeaf(n), attrName(n), s)
		ret := a.tmpKey(s)
		if objKey != "" {
			a.eng.Assert("Load", ret, objKey, attrName(n))
		}
		return ret
	case ast.SubscriptLoad:
		objKey := a.genExpr(n.Children[0], s)
		for _, c := range n.Children[1:] {
			a.genExpr(c, s)
		}
		ret := a.tmpKey(s)
		if objKey != "" {
			a.eng.Assert("Load", ret, objKey, "[]")
		}
		return ret
	case ast.Ternary:
		// value if cond else other / cond ? a : b — merge both arms.
		ret := a.tmpKey(s)
		for _, c := range n.Children {
			if v := a.genExpr(c, s); v != "" {
				a.eng.Assert("Move", ret, v)
			}
		}
		return ret
	case ast.Cast:
		typ := exprNameOfTypeRef(n.Children[0])
		v := a.genExpr(n.Children[1], s)
		if v != "" {
			return v
		}
		if typ != "" && !isPrimitiveType(typ) {
			ret := a.tmpKey(s)
			a.eng.Assert("Alloc", ret, "H:"+typ)
			return ret
		}
		return ""
	case ast.Assign, ast.AugAssign:
		// Assignment used in expression position (Java).
		a.genStmt(n, s)
		return ""
	case ast.Index, ast.SliceRange, ast.Keyword, ast.StarArg,
		ast.DoubleStarArg, ast.DictItem, ast.Comprehension, ast.CompFor,
		ast.CompIf, ast.Lambda, ast.ListLit, ast.TupleLit, ast.DictLit,
		ast.SetLit, ast.ArrayLit, ast.BinOp, ast.UnaryOp, ast.BoolOp,
		ast.Compare, ast.InstanceOf, ast.Yield:
		for _, c := range n.Children {
			a.genExpr(c, s)
		}
		return ""
	case ast.Num, ast.Str, ast.Bool, ast.Null, ast.TypeRef, ast.Ident,
		ast.OpTok, ast.NumLit, ast.StrLit, ast.BoolLit, ast.NullLit:
		return ""
	}
	for _, c := range n.Children {
		a.genExpr(c, s)
	}
	return ""
}

// genCall handles Call nodes: direct calls, constructor calls, and method
// calls with in-file resolution and k-call-site context expansion.
func (a *analyzer) genCall(n *ast.Node, s *scope) string {
	a.siteID++
	site := strconv.Itoa(a.siteID)
	callee := n.Children[0]
	args := n.Children[1:]
	var argKeys []string
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
			argKeys = append(argKeys, "")
		default:
			argKeys = append(argKeys, a.genExpr(arg, s))
		}
	}

	switch callee.Kind {
	case ast.NameLoad:
		name := callee.Children[0].Value
		if cls, ok := a.info.Classes[name]; ok {
			// Constructor call to an in-file class.
			ret := a.tmpKey(s)
			a.eng.Assert("Alloc", ret, "I:"+name)
			if init, ok := cls.Methods["__init__"]; ok {
				a.callInFile(cls.Name+".__init__", init, cls, ret, argKeys, site, s)
			} else if ctor, ok := cls.Methods[name]; ok {
				a.callInFile(cls.Name+"."+name, ctor, cls, ret, argKeys, site, s)
			}
			return ret
		}
		if fn, ok := a.info.Funcs[name]; ok {
			return a.callInFile(name, fn, nil, "", argKeys, site, s)
		}
		// External function: fresh allocation site labeled by callee.
		ret := a.tmpKey(s)
		a.eng.Assert("Alloc", ret, "H:"+name)
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
			selfKey := ""
			if v, ok := s.env[obj.Children[0].Value]; ok {
				selfKey = a.varKey(s, obj.Children[0].Value, v)
			}
			if cls, m := a.info.ResolveMethod(s.class.Name, attr); cls != nil {
				return a.callInFile(cls.Name+"."+attr, m, cls, selfKey, argKeys, site, s)
			}
			ret := a.tmpKey(s)
			a.eng.Assert("Alloc", ret, "H:"+attr)
			return ret
		}
		objKey := a.genReceiver(obj, aID, attr, s)
		// Statically-typed in-file receiver: resolve the method.
		if obj.Kind == ast.NameLoad {
			if t, ok := s.types[obj.Children[0].Value]; ok {
				if cls, m := a.info.ResolveMethod(t, attr); cls != nil {
					return a.callInFile(cls.Name+"."+attr, m, cls, objKey, argKeys, site, s)
				}
			}
		}
		ret := a.tmpKey(s)
		a.eng.Assert("Alloc", ret, "H:"+attr)
		return ret
	default:
		a.genExpr(callee, s)
		return a.tmpKey(s)
	}
}

func (a *analyzer) genNew(n *ast.Node, s *scope) string {
	typ := exprNameOfTypeRef(n.Children[0])
	base := strings.TrimSuffix(typ, "[]")
	var argKeys []string
	for _, arg := range n.Children[1:] {
		argKeys = append(argKeys, a.genExpr(arg, s))
	}
	ret := a.tmpKey(s)
	if cls, ok := a.info.Classes[base]; ok {
		a.eng.Assert("Alloc", ret, "I:"+base)
		a.siteID++
		if ctor, ok := cls.Methods[base]; ok {
			a.callInFile(base+"."+base, ctor, cls, ret, argKeys, strconv.Itoa(a.siteID), s)
		}
	} else {
		a.eng.Assert("Alloc", ret, "H:"+base)
	}
	return ret
}

// callInFile wires an interprocedural call to a function or method defined
// in the file, pushing a k-limited call-site context, and returns the key
// receiving the return value.
func (a *analyzer) callInFile(fnID string, fnNode *ast.Node, cls *ClassInfo,
	selfKey string, argKeys []string, site string, s *scope) string {
	newCtx := pushContext(s.ctx, site, a.k)
	if a.k > 0 && s.ctx == "" {
		a.calls[s.fnID] = append(a.calls[s.fnID], fnID)
	}
	if key := fnID + "@" + newCtx; !a.done[key] {
		a.queue = append(a.queue, task{fnID: fnID, ctx: newCtx, node: fnNode, class: cls})
	}
	callee := &scope{fnID: fnID, ctx: newCtx, class: cls}
	params := findChild(fnNode, ast.Params)
	pi := 0
	if params != nil {
		for i, p := range params.Children {
			name, _ := paramNameType(p)
			if name == "" {
				continue
			}
			formal := a.varKey(callee, name, 0)
			if i == 0 && cls != nil && isSelfName(name) && a.info.Lang == ast.Python {
				if selfKey != "" {
					a.eng.Assert("Move", formal, selfKey)
				}
				continue
			}
			if pi < len(argKeys) && argKeys[pi] != "" {
				a.eng.Assert("Move", formal, argKeys[pi])
			}
			pi++
		}
	}
	if cls != nil && a.info.Lang == ast.Java && selfKey != "" {
		a.eng.Assert("Move", a.varKey(callee, "this", 0), selfKey)
	}
	ret := a.tmpKey(s)
	a.eng.Assert("Move", ret, a.retKey(fnID, newCtx))
	return ret
}

// pushContext appends a call site to a context string, keeping at most k
// sites (most recent last).
func pushContext(ctx, site string, k int) string {
	if k <= 0 {
		return ""
	}
	if ctx == "" {
		return site
	}
	ctx += "|" + site
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
	// Union of assigned variables across branches.
	names := map[string]bool{}
	for _, b := range branches {
		for n, v := range b.env {
			if s.env[n] != v {
				names[n] = true
			}
		}
	}
	for n := range names {
		// The merged version must exceed every branch's version (branches
		// share the function-scoped key space).
		merged := verNext(s, n)
		for _, b := range branches {
			if v, ok := b.env[n]; ok && v >= merged {
				merged = v + 1
			}
		}
		for _, b := range branches {
			if v, ok := b.env[n]; ok {
				a.eng.Assert("Move", a.varKey(s, n, merged), a.varKey(s, n, v))
			}
		}
		s.env[n] = merged
		// Types diverge: keep only if all branches agree.
		t := ""
		agree := true
		for _, b := range branches {
			bt := b.types[n]
			if t == "" {
				t = bt
			} else if bt != t {
				agree = false
			}
		}
		if agree && t != "" {
			s.types[n] = t
		} else {
			delete(s.types, n)
		}
	}
}
