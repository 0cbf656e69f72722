// Package datalog implements a small bottom-up Datalog engine with
// semi-naive evaluation, hash-join indices, and stratified negation. The
// paper implements its flow- and context-sensitive Andersen-style points-to
// analysis in Datalog (§4.1); package pointsto expresses its rules against
// this engine.
//
// Rule syntax (see Parse):
//
//	PointsTo(V, H) :- Alloc(V, H).
//	PointsTo(A, H) :- Assign(A, B), PointsTo(B, H).
//	External(F)   :- Callee(F), !DefinedHere(F).
//
// Identifiers starting with an uppercase letter or '_' inside an atom are
// variables; everything else (lowercase identifiers, quoted strings,
// numbers) is a constant. '_' alone is an anonymous variable.
//
// A Program is parsed once and shared; each Engine holds one evaluation's
// tuples. Tuples are vectors of int32 symbols the caller numbers densely
// from 0. A program's constants are the symbols 0..n-1 in order of first
// appearance, so a caller that numbers its own symbols should keep
// constants out of its rules.
package datalog

import (
	"fmt"
	"strings"
)

// Program is a parsed rule set: its relations, rules, ground facts and
// evaluation plans. It is immutable once parsed, so one Program can back
// any number of engines in any number of goroutines.
type Program struct {
	arity    []int // by relation
	byName   map[string]int
	rules    []*rule
	facts    []fact
	strata   []stratum
	stratErr error
	numVars  int // the most variables any rule binds
	syms     *symtab
}

type fact struct {
	rel int
	t   []int32
}

// term is a constant symbol or a variable slot.
type term struct {
	isVar bool
	sym   int32 // constant symbol when !isVar
	slot  int   // variable slot when isVar; -1 for anonymous
}

type atom struct {
	rel     int
	terms   []term
	negated bool
}

type rule struct {
	head    atom
	body    []atom
	numVars int
}

// Parse parses a newline- or period-separated list of rules. Facts (rules
// without ':-') are asserted into every engine the program backs.
func Parse(src string) (*Program, error) {
	p := &Program{byName: make(map[string]int), syms: newSymtab()}
	for _, cl := range splitClauses(src) {
		if err := p.parseClause(cl); err != nil {
			return nil, fmt.Errorf("datalog: %w in clause %q", err, cl)
		}
	}
	p.strata, p.stratErr = p.stratify()
	return p, nil
}

// MustParse is Parse but panics on error; intended for static rule sets.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// relation returns the index of the named relation, declaring it on first
// use.
func (p *Program) relation(name string, arity int) (int, error) {
	if i, ok := p.byName[name]; ok {
		if p.arity[i] != arity {
			return 0, fmt.Errorf("relation %s used with arity %d and %d", name, p.arity[i], arity)
		}
		return i, nil
	}
	p.byName[name] = len(p.arity)
	p.arity = append(p.arity, arity)
	return len(p.arity) - 1, nil
}

func splitClauses(program string) []string {
	var out []string
	var cur strings.Builder
	inStr := false
	for _, r := range program {
		switch {
		case r == '"':
			inStr = !inStr
			cur.WriteRune(r)
		case r == '.' && !inStr:
			s := strings.TrimSpace(cur.String())
			if s != "" {
				out = append(out, s)
			}
			cur.Reset()
		case r == '%' && !inStr:
			// comment to end of line: mark by writing nothing until newline
			cur.WriteRune(r)
		default:
			cur.WriteRune(r)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		out = append(out, s)
	}
	// Strip comment lines.
	var clean []string
	for _, c := range out {
		var lines []string
		for _, l := range strings.Split(c, "\n") {
			if i := strings.Index(l, "%"); i >= 0 {
				l = l[:i]
			}
			lines = append(lines, l)
		}
		c = strings.TrimSpace(strings.Join(lines, "\n"))
		if c != "" {
			clean = append(clean, c)
		}
	}
	return clean
}

func (p *Program) parseClause(cl string) error {
	headText, bodyText, hasBody := strings.Cut(cl, ":-")
	vars := map[string]int{}
	head, err := p.parseAtom(strings.TrimSpace(headText), vars)
	if err != nil {
		return err
	}
	if head.negated {
		return fmt.Errorf("negated head")
	}
	if !hasBody {
		// Ground fact.
		t := make([]int32, len(head.terms))
		for i, tm := range head.terms {
			if tm.isVar {
				return fmt.Errorf("non-ground fact")
			}
			t[i] = tm.sym
		}
		p.facts = append(p.facts, fact{rel: head.rel, t: t})
		return nil
	}
	var body []atom
	for _, part := range splitAtoms(bodyText) {
		a, err := p.parseAtom(strings.TrimSpace(part), vars)
		if err != nil {
			return err
		}
		body = append(body, a)
	}
	// Safety: every head variable and every negated-atom variable must be
	// bound by a positive body atom.
	bound := map[int]bool{}
	for _, a := range body {
		if a.negated {
			continue
		}
		for _, tm := range a.terms {
			if tm.isVar && tm.slot >= 0 {
				bound[tm.slot] = true
			}
		}
	}
	for _, tm := range head.terms {
		if tm.isVar && tm.slot >= 0 && !bound[tm.slot] {
			return fmt.Errorf("unsafe head variable")
		}
	}
	for _, a := range body {
		if !a.negated {
			continue
		}
		for _, tm := range a.terms {
			if tm.isVar && tm.slot >= 0 && !bound[tm.slot] {
				return fmt.Errorf("unsafe variable in negated atom")
			}
		}
	}
	p.rules = append(p.rules, &rule{head: head, body: body, numVars: len(vars)})
	p.numVars = max(p.numVars, len(vars))
	return nil
}

// splitAtoms splits a rule body on commas at paren depth zero.
func splitAtoms(s string) []string {
	var out []string
	depth := 0
	start := 0
	inStr := false
	for i, r := range s {
		switch {
		case r == '"':
			inStr = !inStr
		case inStr:
		case r == '(':
			depth++
		case r == ')':
			depth--
		case r == ',' && depth == 0:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	out = append(out, s[start:])
	return out
}

func (p *Program) parseAtom(s string, vars map[string]int) (atom, error) {
	var a atom
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "!") {
		a.negated = true
		s = strings.TrimSpace(s[1:])
	}
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return a, fmt.Errorf("malformed atom %q", s)
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return a, fmt.Errorf("atom missing relation name")
	}
	args := splitAtoms(s[open+1 : len(s)-1])
	for _, arg := range args {
		arg = strings.TrimSpace(arg)
		if arg == "" {
			return a, fmt.Errorf("empty argument")
		}
		switch {
		case arg == "_":
			a.terms = append(a.terms, term{isVar: true, slot: -1})
		case arg[0] >= 'A' && arg[0] <= 'Z' || arg[0] == '_':
			slot, ok := vars[arg]
			if !ok {
				slot = len(vars)
				vars[arg] = slot
			}
			a.terms = append(a.terms, term{isVar: true, slot: slot})
		case arg[0] == '"':
			if len(arg) < 2 || !strings.HasSuffix(arg, "\"") {
				return a, fmt.Errorf("malformed string %q", arg)
			}
			a.terms = append(a.terms, term{sym: p.syms.intern(arg[1 : len(arg)-1])})
		default:
			a.terms = append(a.terms, term{sym: p.syms.intern(arg)})
		}
	}
	rel, err := p.relation(name, len(a.terms))
	a.rel = rel
	return a, err
}

// stratum is one stratum's derived relations and the join plans of its
// rules.
type stratum struct {
	heads []int
	plans []*plan
}

// stratify groups rules into strata such that negated dependencies always
// point to earlier strata, and plans every rule's joins.
func (p *Program) stratify() ([]stratum, error) {
	// Compute a stratum number per relation: rel depends on body rels;
	// through negation the dependency is strict (+1).
	strat := make([]int, len(p.arity))
	for iter := 0; ; iter++ {
		changed := false
		for _, r := range p.rules {
			h := strat[r.head.rel]
			for _, a := range r.body {
				need := strat[a.rel]
				if a.negated {
					need++
				}
				if need > h {
					h = need
					changed = true
				}
			}
			strat[r.head.rel] = h
		}
		if !changed {
			break
		}
		if iter > len(p.arity)+1 {
			return nil, fmt.Errorf("datalog: program is not stratifiable")
		}
	}
	maxS := 0
	for _, s := range strat {
		maxS = max(maxS, s)
	}
	byStratum := make([][]*rule, maxS+1)
	for _, r := range p.rules {
		s := strat[r.head.rel]
		byStratum[s] = append(byStratum[s], r)
	}
	var strata []stratum
	for _, rules := range byStratum {
		if len(rules) == 0 {
			continue
		}
		var st stratum
		derived := make([]bool, len(p.arity))
		for _, r := range rules {
			if !derived[r.head.rel] {
				derived[r.head.rel] = true
				st.heads = append(st.heads, r.head.rel)
			}
		}
		// Semi-naive: one plan per positive body atom over a relation
		// derived here, reading only that relation's previous-round
		// tuples. A rule over lower strata alone runs once, in the first
		// round.
		for _, r := range rules {
			planned := false
			for i, a := range r.body {
				if !a.negated && derived[a.rel] {
					st.plans = append(st.plans, newPlan(r, i))
					planned = true
				}
			}
			if !planned {
				st.plans = append(st.plans, newPlan(r, -1))
			}
		}
		strata = append(strata, st)
	}
	return strata, nil
}

// A plan is one rule's body as a sequence of steps: the delta atom first,
// then the other positive atoms in body order, then the negated ones.
// Which variables are bound at each step is known statically, so every
// term compiles to an op.
type plan struct {
	headRel int
	head    []op // opConst or opCheck
	delta   bool // the first step reads the previous round's tuples
	steps   []step
}

type step struct {
	rel     int
	negated bool
	ground  bool // no anonymous variable
	// col is the column looked up by key in the relation's index, -1 to
	// scan every tuple.
	col   int
	key   op
	terms []op
}

type opKind uint8

const (
	opSkip  opKind = iota // anonymous variable
	opConst               // equals the constant val
	opCheck               // equals the value bound to slot val
	opBind                // binds slot val
)

type op struct {
	kind opKind
	val  int32
}

func newPlan(r *rule, deltaPos int) *plan {
	pl := &plan{headRel: r.head.rel, delta: deltaPos >= 0}
	order := make([]int, 0, len(r.body))
	if deltaPos >= 0 {
		order = append(order, deltaPos)
	}
	for i, a := range r.body {
		if i != deltaPos && !a.negated {
			order = append(order, i)
		}
	}
	for i, a := range r.body {
		if a.negated {
			order = append(order, i)
		}
	}
	bound := make([]bool, r.numVars)
	for _, ai := range order {
		a := r.body[ai]
		st := step{rel: a.rel, negated: a.negated, ground: true, col: -1}
		for i, tm := range a.terms {
			var o op
			switch {
			case !tm.isVar:
				o = op{opConst, tm.sym}
			case tm.slot < 0:
				o = op{opSkip, 0}
				st.ground = false
			case bound[tm.slot]:
				o = op{opCheck, int32(tm.slot)}
			default:
				o = op{opBind, int32(tm.slot)}
				bound[tm.slot] = true
			}
			if st.col < 0 && (o.kind == opConst || o.kind == opCheck) && ai != deltaPos {
				st.col, st.key = i, o
			}
			st.terms = append(st.terms, o)
		}
		pl.steps = append(pl.steps, st)
	}
	for _, tm := range r.head.terms {
		if tm.isVar {
			pl.head = append(pl.head, op{opCheck, int32(tm.slot)})
		} else {
			pl.head = append(pl.head, op{opConst, tm.sym})
		}
	}
	return pl
}

// Engine holds the tuples of one evaluation of a Program.
type Engine struct {
	prog *Program
	rels []Relation
	// lo and hi bound, per relation, the positions of the tuples derived
	// in the previous round of the current stratum.
	lo, hi  []int
	binding []int32
	buf     []int32
}

// NewEngine returns an engine holding the program's ground facts.
func NewEngine(p *Program) *Engine {
	e := &Engine{prog: p, rels: make([]Relation, len(p.arity))}
	for i, n := range p.arity {
		e.rels[i].arity = n
	}
	for _, f := range p.facts {
		e.rels[f.rel].Insert(f.t...)
	}
	return e
}

// Relation returns the named relation of the program. It panics if the
// program has no such relation.
func (e *Engine) Relation(name string) *Relation {
	i, ok := e.prog.byName[name]
	if !ok {
		panic("datalog: unknown relation " + name)
	}
	return &e.rels[i]
}

// Run evaluates all rules to fixpoint using stratified semi-naive
// evaluation. It returns an error if the program cannot be stratified
// (negation through a cycle).
func (e *Engine) Run() error {
	if e.prog.stratErr != nil {
		return e.prog.stratErr
	}
	e.lo = make([]int, len(e.rels))
	e.hi = make([]int, len(e.rels))
	e.binding = make([]int32, e.prog.numVars)
	for i := range e.prog.strata {
		e.runStratum(&e.prog.strata[i])
	}
	return nil
}

// runStratum evaluates one stratum's rules to fixpoint with semi-naive
// iteration: each round only considers joins that touch at least one tuple
// derived in the previous round. Tuples are only ever appended, so a
// round's new tuples are a range of positions.
func (e *Engine) runStratum(s *stratum) {
	// Round 0: all existing tuples count as delta (facts may have been
	// inserted before Run).
	for _, r := range s.heads {
		e.lo[r], e.hi[r] = 0, e.rels[r].n
	}
	for first := true; ; first = false {
		for _, pl := range s.plans {
			if pl.delta || first {
				e.join(pl, 0)
			}
		}
		grew := false
		for _, r := range s.heads {
			e.lo[r], e.hi[r] = e.hi[r], e.rels[r].n
			grew = grew || e.lo[r] < e.hi[r]
		}
		if !grew {
			return
		}
	}
}

// join matches steps[k:] of the plan against the relations under the
// current bindings and inserts every head tuple it derives.
func (e *Engine) join(pl *plan, k int) {
	if k == len(pl.steps) {
		// Insert copies the tuple only when it is new.
		e.buf = e.fill(e.buf[:0], pl.head)
		e.rels[pl.headRel].Insert(e.buf...)
		return
	}
	st := &pl.steps[k]
	r := &e.rels[st.rel]
	if st.negated {
		if e.anyMatch(r, st) {
			return // the negated atom holds: fail
		}
		e.join(pl, k+1)
		return
	}
	switch {
	case k == 0 && pl.delta:
		for pos := e.lo[st.rel]; pos < e.hi[st.rel]; pos++ {
			if e.unify(r.tuple(pos), st.terms) {
				e.join(pl, k+1)
			}
		}
	case st.col >= 0:
		// Tuples inserted while iterating go to the front of the chain
		// and are not visited; the next round sees them as delta.
		ix := r.column(st.col)
		for p := ix.first(e.value(st.key)); p != 0; p = ix.next[p-1] {
			if e.unify(r.tuple(int(p-1)), st.terms) {
				e.join(pl, k+1)
			}
		}
	default:
		for pos, n := 0, r.n; pos < n; pos++ {
			if e.unify(r.tuple(pos), st.terms) {
				e.join(pl, k+1)
			}
		}
	}
}

func (e *Engine) value(o op) int32 {
	if o.kind == opConst {
		return o.val
	}
	return e.binding[o.val]
}

// fill appends the values of ops, all opConst or opCheck, to buf.
func (e *Engine) fill(buf []int32, ops []op) []int32 {
	for _, o := range ops {
		buf = append(buf, e.value(o))
	}
	return buf
}

// unify matches tuple t against the terms, binding the opBind slots.
// Bindings left by a failed match are overwritten before they are read,
// as every later read of a slot follows the step that binds it.
func (e *Engine) unify(t []int32, terms []op) bool {
	for i, o := range terms {
		switch o.kind {
		case opConst:
			if t[i] != o.val {
				return false
			}
		case opCheck:
			if t[i] != e.binding[o.val] {
				return false
			}
		case opBind:
			e.binding[o.val] = t[i]
		}
	}
	return true
}

// anyMatch reports whether some tuple of r matches a negated step, whose
// variables are all bound or anonymous.
func (e *Engine) anyMatch(r *Relation, st *step) bool {
	if st.ground {
		e.buf = e.fill(e.buf[:0], st.terms)
		return r.contains(e.buf)
	}
	if st.col < 0 {
		for pos := 0; pos < r.n; pos++ {
			if e.unify(r.tuple(pos), st.terms) {
				return true
			}
		}
		return false
	}
	ix := r.column(st.col)
	for p := ix.first(e.value(st.key)); p != 0; p = ix.next[p-1] {
		if e.unify(r.tuple(int(p-1)), st.terms) {
			return true
		}
	}
	return false
}
