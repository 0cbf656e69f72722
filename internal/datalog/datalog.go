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
package datalog

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Engine holds relations, rules, and the symbol table.
type Engine struct {
	Syms  *SymTab
	rels  map[string]*relation
	rules []*rule
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{Syms: NewSymTab(), rels: make(map[string]*relation)}
}

type relation struct {
	name   string
	arity  int
	seen   map[string]struct{}
	tuples [][]int32
	// index[col][value] lists tuple positions with that value in col.
	index map[int]map[int32][]int
}

func (e *Engine) relation(name string, arity int) *relation {
	r, ok := e.rels[name]
	if !ok {
		r = &relation{name: name, arity: arity, seen: make(map[string]struct{}),
			index: make(map[int]map[int32][]int)}
		e.rels[name] = r
		return r
	}
	if r.arity != arity {
		panic(fmt.Sprintf("datalog: relation %s used with arity %d and %d", name, r.arity, arity))
	}
	return r
}

func encode(t []int32) string {
	b := make([]byte, 4*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return string(b)
}

// insert adds a tuple if new, returning true if it was added.
func (r *relation) insert(t []int32) bool {
	k := encode(t)
	if _, ok := r.seen[k]; ok {
		return false
	}
	r.seen[k] = struct{}{}
	pos := len(r.tuples)
	r.tuples = append(r.tuples, t)
	for col, idx := range r.index {
		idx[t[col]] = append(idx[t[col]], pos)
	}
	return true
}

// ensureIndex builds (once) an index on the given column.
func (r *relation) ensureIndex(col int) map[int32][]int {
	if idx, ok := r.index[col]; ok {
		return idx
	}
	idx := make(map[int32][]int)
	for pos, t := range r.tuples {
		idx[t[col]] = append(idx[t[col]], pos)
	}
	r.index[col] = idx
	return idx
}

// Assert adds a ground fact.
func (e *Engine) Assert(rel string, values ...string) {
	r := e.relation(rel, len(values))
	t := make([]int32, len(values))
	for i, v := range values {
		t[i] = e.Syms.Intern(v)
	}
	r.insert(t)
}

// Count returns the number of tuples in a relation (0 if absent).
func (e *Engine) Count(rel string) int {
	if r, ok := e.rels[rel]; ok {
		return len(r.tuples)
	}
	return 0
}

// Query returns all tuples of rel matching the given pattern, where "_"
// matches anything. The result tuples are decoded to strings.
func (e *Engine) Query(rel string, pattern ...string) [][]string {
	r, ok := e.rels[rel]
	if !ok {
		return nil
	}
	if len(pattern) != r.arity {
		panic(fmt.Sprintf("datalog: query %s arity mismatch", rel))
	}
	var out [][]string
	// Use an index on the first bound column if any.
	boundCol := -1
	var boundVal int32
	for i, pv := range pattern {
		if pv != "_" {
			sym, okSym := e.Syms.Lookup(pv)
			if !okSym {
				return nil
			}
			boundCol, boundVal = i, sym
			break
		}
	}
	check := func(t []int32) bool {
		for i, pv := range pattern {
			if pv == "_" {
				continue
			}
			sym, okSym := e.Syms.Lookup(pv)
			if !okSym || t[i] != sym {
				return false
			}
		}
		return true
	}
	decode := func(t []int32) []string {
		s := make([]string, len(t))
		for i, v := range t {
			s[i] = e.Syms.Name(v)
		}
		return s
	}
	if boundCol >= 0 {
		for _, pos := range r.ensureIndex(boundCol)[boundVal] {
			if t := r.tuples[pos]; check(t) {
				out = append(out, decode(t))
			}
		}
		return out
	}
	for _, t := range r.tuples {
		if check(t) {
			out = append(out, decode(t))
		}
	}
	return out
}

// term is a constant symbol or a variable slot.
type term struct {
	isVar bool
	sym   int32 // constant symbol when !isVar
	slot  int   // variable slot when isVar; -1 for anonymous
}

type atom struct {
	rel     string
	arity   int
	terms   []term
	negated bool
}

type rule struct {
	head    atom
	body    []atom
	numVars int
	text    string
}

// Parse parses a newline- or period-separated list of rules and adds them
// to the engine. Facts (rules without ':-') are asserted directly.
func (e *Engine) Parse(program string) error {
	clauses := splitClauses(program)
	for _, cl := range clauses {
		if err := e.parseClause(cl); err != nil {
			return fmt.Errorf("datalog: %w in clause %q", err, cl)
		}
	}
	return nil
}

// MustParse is Parse but panics on error; intended for static rule sets.
func (e *Engine) MustParse(program string) {
	if err := e.Parse(program); err != nil {
		panic(err)
	}
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

func (e *Engine) parseClause(cl string) error {
	headText, bodyText, hasBody := strings.Cut(cl, ":-")
	vars := map[string]int{}
	head, err := e.parseAtom(strings.TrimSpace(headText), vars)
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
		e.relation(head.rel, head.arity).insert(t)
		return nil
	}
	var body []atom
	for _, part := range splitAtoms(bodyText) {
		a, err := e.parseAtom(strings.TrimSpace(part), vars)
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
	// Ensure relations exist.
	e.relation(head.rel, head.arity)
	for _, a := range body {
		e.relation(a.rel, a.arity)
	}
	e.rules = append(e.rules, &rule{head: head, body: body, numVars: len(vars), text: cl})
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

func (e *Engine) parseAtom(s string, vars map[string]int) (atom, error) {
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
	a.rel = strings.TrimSpace(s[:open])
	if a.rel == "" {
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
			a.terms = append(a.terms, term{sym: e.Syms.Intern(arg[1 : len(arg)-1])})
		default:
			a.terms = append(a.terms, term{sym: e.Syms.Intern(arg)})
		}
	}
	a.arity = len(a.terms)
	return a, nil
}

// Run evaluates all rules to fixpoint using stratified semi-naive
// evaluation. It returns an error if the program cannot be stratified
// (negation through a cycle).
func (e *Engine) Run() error {
	strata, err := e.stratify()
	if err != nil {
		return err
	}
	for _, stratum := range strata {
		e.runStratum(stratum)
	}
	return nil
}

// stratify groups rules into strata such that negated dependencies always
// point to earlier strata.
func (e *Engine) stratify() ([][]*rule, error) {
	// Compute a stratum number per relation: rel depends on body rels;
	// through negation the dependency is strict (+1).
	strat := map[string]int{}
	for name := range e.rels {
		strat[name] = 0
	}
	n := len(e.rels)
	for iter := 0; ; iter++ {
		changed := false
		for _, r := range e.rules {
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
		if iter > n+1 {
			return nil, fmt.Errorf("datalog: program is not stratifiable")
		}
	}
	maxS := 0
	for _, s := range strat {
		if s > maxS {
			maxS = s
		}
	}
	strata := make([][]*rule, maxS+1)
	for _, r := range e.rules {
		s := strat[r.head.rel]
		strata[s] = append(strata[s], r)
	}
	return strata, nil
}

// runStratum evaluates one stratum's rules to fixpoint with semi-naive
// iteration: each round only considers joins that touch at least one tuple
// derived in the previous round.
func (e *Engine) runStratum(rules []*rule) {
	derived := map[string]bool{}
	for _, r := range rules {
		derived[r.head.rel] = true
	}
	// delta = tuples added in the previous round, per relation.
	delta := map[string][][]int32{}
	// Round 0: all existing tuples count as delta (facts may have been
	// asserted before Run).
	for name := range derived {
		rel := e.rels[name]
		delta[name] = append([][]int32{}, rel.tuples...)
	}
	first := true
	for {
		next := map[string][][]int32{}
		for _, r := range rules {
			// Choose which body atom uses the delta. On the first round
			// also run with no delta restriction so rules over pure EDB
			// relations fire.
			usedDelta := false
			for i, a := range r.body {
				if a.negated || !derived[a.rel] {
					continue
				}
				usedDelta = true
				e.evalRule(r, i, delta[a.rel], next)
			}
			if !usedDelta && first {
				e.evalRule(r, -1, nil, next)
			}
		}
		first = false
		empty := true
		for _, ts := range next {
			if len(ts) > 0 {
				empty = false
			}
		}
		if empty {
			return
		}
		delta = next
	}
}

// evalRule joins the rule body, using deltaTuples for body atom deltaPos
// (or full relations everywhere when deltaPos < 0), and inserts derived
// head tuples. Newly inserted tuples are appended to next[headRel].
func (e *Engine) evalRule(r *rule, deltaPos int, deltaTuples [][]int32, next map[string][][]int32) {
	binding := make([]int32, r.numVars)
	boundVar := make([]bool, r.numVars)
	headRel := e.rels[r.head.rel]

	// Order body atoms: delta atom first for selectivity, negated last.
	order := make([]int, 0, len(r.body))
	if deltaPos >= 0 {
		order = append(order, deltaPos)
	}
	for i, a := range r.body {
		if i == deltaPos || a.negated {
			continue
		}
		order = append(order, i)
	}
	for i, a := range r.body {
		if a.negated {
			order = append(order, i)
		}
	}

	var rec func(k int)
	rec = func(k int) {
		if k == len(order) {
			t := make([]int32, len(r.head.terms))
			for i, tm := range r.head.terms {
				if tm.isVar {
					t[i] = binding[tm.slot]
				} else {
					t[i] = tm.sym
				}
			}
			if headRel.insert(t) {
				next[r.head.rel] = append(next[r.head.rel], t)
			}
			return
		}
		ai := order[k]
		a := r.body[ai]
		rel := e.rels[a.rel]

		if a.negated {
			// All variables are bound (safety); check absence.
			t := make([]int32, len(a.terms))
			ground := true
			for i, tm := range a.terms {
				switch {
				case !tm.isVar:
					t[i] = tm.sym
				case tm.slot >= 0 && boundVar[tm.slot]:
					t[i] = binding[tm.slot]
				default:
					ground = false
				}
			}
			if ground {
				if _, ok := rel.seen[encode(t)]; ok {
					return // negated atom holds a match: fail
				}
				rec(k + 1)
				return
			}
			// Anonymous variable in negated atom: fail only if any tuple
			// matches the bound positions.
			for _, tu := range rel.tuples {
				match := true
				for i, tm := range a.terms {
					if !tm.isVar && tu[i] != tm.sym {
						match = false
						break
					}
					if tm.isVar && tm.slot >= 0 && boundVar[tm.slot] && tu[i] != binding[tm.slot] {
						match = false
						break
					}
				}
				if match {
					return
				}
			}
			rec(k + 1)
			return
		}

		var candidates [][]int32
		if ai == deltaPos {
			candidates = deltaTuples
		} else {
			// Use an index on the first bound column.
			col := -1
			var val int32
			for i, tm := range a.terms {
				if !tm.isVar {
					col, val = i, tm.sym
					break
				}
				if tm.slot >= 0 && boundVar[tm.slot] {
					col, val = i, binding[tm.slot]
					break
				}
			}
			if col >= 0 {
				idx := rel.ensureIndex(col)
				for _, pos := range idx[val] {
					candidates = append(candidates, rel.tuples[pos])
				}
			} else {
				candidates = rel.tuples
			}
		}
	cand:
		for _, tu := range candidates {
			var newlyBound []int
			for i, tm := range a.terms {
				switch {
				case !tm.isVar:
					if tu[i] != tm.sym {
						for _, s := range newlyBound {
							boundVar[s] = false
						}
						continue cand
					}
				case tm.slot < 0:
					// anonymous
				case boundVar[tm.slot]:
					if tu[i] != binding[tm.slot] {
						for _, s := range newlyBound {
							boundVar[s] = false
						}
						continue cand
					}
				default:
					binding[tm.slot] = tu[i]
					boundVar[tm.slot] = true
					newlyBound = append(newlyBound, tm.slot)
				}
			}
			rec(k + 1)
			for _, s := range newlyBound {
				boundVar[s] = false
			}
		}
	}
	rec(0)
}
