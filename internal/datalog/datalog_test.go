package datalog

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// strEngine evaluates a program over string symbols, the way the tests
// state facts and queries.
type strEngine struct {
	*Engine
	syms *symtab
}

func newStrEngine(src string) *strEngine {
	p := MustParse(src)
	syms := &symtab{byName: maps.Clone(p.syms.byName), names: slices.Clone(p.syms.names)}
	return &strEngine{NewEngine(p), syms}
}

func (e *strEngine) assert(rel string, values ...string) {
	t := make([]int32, len(values))
	for i, v := range values {
		t[i] = e.syms.intern(v)
	}
	e.Relation(rel).Insert(t...)
}

func (e *strEngine) count(rel string) int { return e.Relation(rel).Len() }

// query returns the tuples of rel matching pattern, where "_" matches
// anything.
func (e *strEngine) query(rel string, pattern ...string) [][]string {
	r := e.Relation(rel)
	var out [][]string
tuples:
	for pos := 0; pos < r.Len(); pos++ {
		t := r.tuple(pos)
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = e.syms.names[v]
			if pattern[i] != "_" && pattern[i] != row[i] {
				continue tuples
			}
		}
		out = append(out, row)
	}
	return out
}

func TestTransitiveClosure(t *testing.T) {
	e := newStrEngine(`
		Path(X, Y) :- Edge(X, Y).
		Path(X, Z) :- Path(X, Y), Edge(Y, Z).
	`)
	e.assert("Edge", "a", "b")
	e.assert("Edge", "b", "c")
	e.assert("Edge", "c", "d")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.count("Path"); got != 6 {
		t.Errorf("Path count = %d, want 6", got)
	}
	if len(e.query("Path", "a", "d")) != 1 {
		t.Error("Path(a,d) should hold")
	}
	if len(e.query("Path", "d", "a")) != 0 {
		t.Error("Path(d,a) should not hold")
	}
	if got := len(e.query("Path", "a", "_")); got != 3 {
		t.Errorf("Path(a,_) = %d, want 3", got)
	}
}

func TestCyclicGraphTerminates(t *testing.T) {
	e := newStrEngine(`
		Path(X, Y) :- Edge(X, Y).
		Path(X, Z) :- Path(X, Y), Edge(Y, Z).
	`)
	// A cycle: a -> b -> c -> a
	e.assert("Edge", "a", "b")
	e.assert("Edge", "b", "c")
	e.assert("Edge", "c", "a")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.count("Path"); got != 9 {
		t.Errorf("Path count = %d, want 9 (complete digraph over cycle)", got)
	}
}

func TestNegationStratified(t *testing.T) {
	e := newStrEngine(`
		Reachable(X) :- Start(X).
		Reachable(Y) :- Reachable(X), Edge(X, Y).
		Unreachable(X) :- Vertex(X), !Reachable(X).
	`)
	for _, v := range []string{"a", "b", "c", "d"} {
		e.assert("Vertex", v)
	}
	e.assert("Start", "a")
	e.assert("Edge", "a", "b")
	e.assert("Edge", "c", "d")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.count("Unreachable"); got != 2 {
		t.Errorf("Unreachable = %d, want 2", got)
	}
	if len(e.query("Unreachable", "c")) != 1 || len(e.query("Unreachable", "d")) != 1 {
		t.Error("c and d should be unreachable")
	}
}

func TestUnstratifiableProgram(t *testing.T) {
	e := newStrEngine(`
		P(X) :- Q(X), !R(X).
		R(X) :- Q(X), !P(X).
	`)
	e.assert("Q", "a")
	if err := e.Run(); err == nil {
		t.Error("negation through a cycle should be rejected")
	}
}

func TestFactsInProgramText(t *testing.T) {
	e := newStrEngine(`
		Edge(a, b).
		Edge(b, c).
		Path(X, Y) :- Edge(X, Y).
		Path(X, Z) :- Path(X, Y), Edge(Y, Z).
	`)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.count("Path"); got != 3 {
		t.Errorf("Path = %d, want 3", got)
	}
}

func TestQuotedConstantsAndComments(t *testing.T) {
	e := newStrEngine(`
		% seed facts
		Owns("alice", "file.txt").
		CanRead(U, F) :- Owns(U, F). % owners read
	`)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.query("CanRead", "alice", "file.txt")) != 1 {
		t.Error("quoted constants not handled")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"P(X) :- ",              // empty body atom
		"P(X)",                  // non-ground fact
		"P(X) :- Q(Y)",          // unsafe head variable
		"P(X) :- Q(X), !R(Y)",   // unsafe negated variable
		"P :- Q(X)",             // malformed head atom
		"!P(a)",                 // negated head
		"P(X) :- Q(X, Y), Q(X)", // relation used with two arities
	}
	for _, prog := range bad {
		if _, err := Parse(prog); err == nil {
			t.Errorf("Parse(%q) should fail", prog)
		}
	}
}

func TestAnonymousVariables(t *testing.T) {
	e := newStrEngine(`
		HasChild(X) :- Parent(X, _).
	`)
	e.assert("Parent", "a", "b")
	e.assert("Parent", "a", "c")
	e.assert("Parent", "b", "c")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.count("HasChild"); got != 2 {
		t.Errorf("HasChild = %d, want 2", got)
	}
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	e := newStrEngine(`R(a).`)
	e.assert("R", "a", "b")
}

func TestPointsToShapedProgram(t *testing.T) {
	// A miniature Andersen-style analysis: alloc, move, store/load through
	// a single field.
	e := newStrEngine(`
		PointsTo(V, H) :- Alloc(V, H).
		PointsTo(A, H) :- Move(A, B), PointsTo(B, H).
		FieldPointsTo(H1, F, H2) :- Store(X, F, Y), PointsTo(X, H1), PointsTo(Y, H2).
		PointsTo(A, H2) :- Load(A, X, F), PointsTo(X, H1), FieldPointsTo(H1, F, H2).
	`)
	e.assert("Alloc", "p", "h1")
	e.assert("Alloc", "q", "h2")
	e.assert("Move", "r", "p")
	e.assert("Store", "r", "f", "q") // r.f = q
	e.assert("Load", "s", "p", "f")  // s = p.f
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.query("PointsTo", "s", "h2")) != 1 {
		t.Error("s should point to h2 through the field")
	}
	if len(e.query("PointsTo", "r", "h1")) != 1 {
		t.Error("r should alias p")
	}
	if len(e.query("PointsTo", "s", "h1")) != 0 {
		t.Error("s should not point to h1")
	}
}

func TestSymTab(t *testing.T) {
	st := newSymtab()
	a := st.intern("alpha")
	b := st.intern("beta")
	if a != 0 || b != 1 {
		t.Errorf("symbols = %d, %d, want the dense 0, 1", a, b)
	}
	if st.intern("alpha") != a {
		t.Error("interning is not idempotent")
	}
	if st.names[a] != "alpha" {
		t.Error("name round trip failed")
	}
	if _, ok := st.byName["gamma"]; ok {
		t.Error("an unknown string should have no symbol")
	}
	if len(st.names) != 2 {
		t.Errorf("%d symbols, want 2", len(st.names))
	}
}

// Property: reachability computed by Datalog matches a direct BFS on random
// small graphs.
func TestReachabilityMatchesBFS(t *testing.T) {
	f := func(edges [][2]uint8) bool {
		const n = 8
		adj := make([][]int, n)
		e := newStrEngine(`
			Reach(X, Y) :- E(X, Y).
			Reach(X, Z) :- Reach(X, Y), E(Y, Z).
		`)
		for _, ed := range edges {
			u, v := int(ed[0]%n), int(ed[1]%n)
			adj[u] = append(adj[u], v)
			e.assert("E", fmt.Sprint(u), fmt.Sprint(v))
		}
		if err := e.Run(); err != nil {
			return false
		}
		for s := 0; s < n; s++ {
			seen := make([]bool, n)
			stack := append([]int{}, adj[s]...)
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[v] {
					continue
				}
				seen[v] = true
				stack = append(stack, adj[v]...)
			}
			for v := 0; v < n; v++ {
				got := len(e.query("Reach", fmt.Sprint(s), fmt.Sprint(v))) == 1
				if got != seen[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on a bad program")
		}
	}()
	MustParse("P(X) :- ")
}

// pointsToRules are the rules of the points-to analysis in package
// pointsto, plus two rules with stratified negation, each with an
// anonymous variable in its negated atom.
const pointsToRules = `
	VarPointsTo(V, H) :- Alloc(V, H).
	VarPointsTo(V, H) :- Move(V, W), VarPointsTo(W, H).
	FieldPointsTo(H, F, H2) :- Store(V, F, W), VarPointsTo(V, H), VarPointsTo(W, H2).
	VarPointsTo(V, H2) :- Load(V, W, F), VarPointsTo(W, H1), FieldPointsTo(H1, F, H2).
	Tainted(V) :- Modified(V).
	Tainted(V) :- Move(V, W), Tainted(W).
	Unstored(H) :- VarPointsTo(_, H), !FieldPointsTo(H, _, _).
	Clean(V) :- VarPointsTo(V, H), !Tainted(V), !FieldPointsTo(_, _, H).
`

// pointsToEDB is a random points-to-shaped input over small domains:
// variables 0-7, heaps 0-3 and fields 0-2, so joins, duplicates and
// cycles are common.
type pointsToEDB struct {
	alloc, move, store, load, modified [][]int32
}

func (pointsToEDB) Generate(r *rand.Rand, size int) reflect.Value {
	tuples := func(doms ...int32) [][]int32 {
		out := make([][]int32, r.Intn(2+size/3))
		for i := range out {
			out[i] = make([]int32, len(doms))
			for j, d := range doms {
				out[i][j] = r.Int31n(d)
			}
		}
		return out
	}
	const vars, heaps, fields = 8, 4, 3
	return reflect.ValueOf(pointsToEDB{
		alloc:    tuples(vars, heaps),
		move:     tuples(vars, vars),
		store:    tuples(vars, fields, vars),
		load:     tuples(vars, vars, fields),
		modified: tuples(vars),
	})
}

type set map[[3]int32]bool

// naivePointsTo evaluates pointsToRules over edb by applying every rule to
// every tuple until nothing changes, then the negation rules once.
func naivePointsTo(edb pointsToEDB) map[string]set {
	vpt, fpt, tainted := set{}, set{}, set{}
	for changed := true; changed; {
		changed = false
		add := func(s set, k [3]int32) {
			if !s[k] {
				s[k] = true
				changed = true
			}
		}
		for _, t := range edb.alloc {
			add(vpt, [3]int32{t[0], t[1]})
		}
		for _, t := range edb.modified {
			add(tainted, [3]int32{t[0]})
		}
		for _, m := range edb.move {
			for k := range vpt {
				if k[0] == m[1] {
					add(vpt, [3]int32{m[0], k[1]})
				}
			}
			if tainted[[3]int32{m[1]}] {
				add(tainted, [3]int32{m[0]})
			}
		}
		for _, s := range edb.store {
			for k := range vpt {
				for k2 := range vpt {
					if k[0] == s[0] && k2[0] == s[2] {
						add(fpt, [3]int32{k[1], s[1], k2[1]})
					}
				}
			}
		}
		for _, l := range edb.load {
			for k := range vpt {
				for f := range fpt {
					if k[0] == l[1] && f[0] == k[1] && f[1] == l[2] {
						add(vpt, [3]int32{l[0], f[2]})
					}
				}
			}
		}
	}
	unstored, clean := set{}, set{}
	for k := range vpt {
		stored, target := false, false
		for f := range fpt {
			stored = stored || f[0] == k[1]
			target = target || f[2] == k[1]
		}
		if !stored {
			unstored[[3]int32{k[1]}] = true
		}
		if !tainted[[3]int32{k[0]}] && !target {
			clean[[3]int32{k[0]}] = true
		}
	}
	return map[string]set{"VarPointsTo": vpt, "FieldPointsTo": fpt, "Tainted": tainted,
		"Unstored": unstored, "Clean": clean}
}

// TestPointsToMatchesNaiveFixpoint is the differential oracle of the
// engine's fast paths (hash-set deduplication, column indices, delta
// ranges and compiled join plans) against a naive fixpoint over Go maps.
func TestPointsToMatchesNaiveFixpoint(t *testing.T) {
	prog := MustParse(pointsToRules)
	f := func(edb pointsToEDB) bool {
		e := NewEngine(prog)
		for rel, ts := range map[string][][]int32{"Alloc": edb.alloc, "Move": edb.move,
			"Store": edb.store, "Load": edb.load, "Modified": edb.modified} {
			for _, tu := range ts {
				e.Relation(rel).Insert(tu...)
			}
		}
		if err := e.Run(); err != nil {
			t.Log(err)
			return false
		}
		for rel, want := range naivePointsTo(edb) {
			r := e.Relation(rel)
			got := set{}
			for pos := 0; pos < r.Len(); pos++ {
				var k [3]int32
				copy(k[:], r.tuple(pos))
				got[k] = true
			}
			if r.Len() != len(got) || !maps.Equal(got, want) {
				t.Logf("%s: engine has %d tuples %v, naive fixpoint %v", rel, r.Len(), got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMatchWalksOneColumn pins Match, the lookup the points-to analysis
// reads its results through: every tuple with the value in the column,
// newest first, stopping when the callback says so.
func TestMatchWalksOneColumn(t *testing.T) {
	e := NewEngine(MustParse(`P(X, Y) :- Q(X, Y).`))
	q := e.Relation("Q")
	for _, tu := range [][2]int32{{0, 1}, {2, 1}, {0, 3}, {0, 1}, {5, 0}} {
		q.Insert(tu[0], tu[1])
	}
	collect := func(col int, v int32, limit int) [][2]int32 {
		var out [][2]int32
		q.Match(col, v, func(t []int32) bool {
			out = append(out, [2]int32{t[0], t[1]})
			return len(out) < limit
		})
		return out
	}
	if got, want := collect(0, 0, 10), [][2]int32{{0, 3}, {0, 1}}; !slices.Equal(got, want) {
		t.Errorf("Match(0, 0) = %v, want %v", got, want)
	}
	if got, want := collect(1, 1, 1), [][2]int32{{2, 1}}; !slices.Equal(got, want) {
		t.Errorf("Match(1, 1) stopped after one = %v, want %v", got, want)
	}
	if got := collect(0, 9, 10); got != nil {
		t.Errorf("Match(0, 9) past the largest symbol = %v, want none", got)
	}
	// The index, built on the first Match, follows later inserts.
	q.Insert(0, 7)
	if got, want := collect(0, 0, 10), [][2]int32{{0, 7}, {0, 3}, {0, 1}}; !slices.Equal(got, want) {
		t.Errorf("Match(0, 0) after an insert = %v, want %v", got, want)
	}
}
