package datalog

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTransitiveClosure(t *testing.T) {
	e := NewEngine()
	e.MustParse(`
		Path(X, Y) :- Edge(X, Y).
		Path(X, Z) :- Path(X, Y), Edge(Y, Z).
	`)
	e.Assert("Edge", "a", "b")
	e.Assert("Edge", "b", "c")
	e.Assert("Edge", "c", "d")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Count("Path"); got != 6 {
		t.Errorf("Path count = %d, want 6", got)
	}
	if len(e.Query("Path", "a", "d")) != 1 {
		t.Error("Path(a,d) should hold")
	}
	if len(e.Query("Path", "d", "a")) != 0 {
		t.Error("Path(d,a) should not hold")
	}
	if got := len(e.Query("Path", "a", "_")); got != 3 {
		t.Errorf("Path(a,_) = %d, want 3", got)
	}
}

func TestCyclicGraphTerminates(t *testing.T) {
	e := NewEngine()
	e.MustParse(`
		Path(X, Y) :- Edge(X, Y).
		Path(X, Z) :- Path(X, Y), Edge(Y, Z).
	`)
	// A cycle: a -> b -> c -> a
	e.Assert("Edge", "a", "b")
	e.Assert("Edge", "b", "c")
	e.Assert("Edge", "c", "a")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Count("Path"); got != 9 {
		t.Errorf("Path count = %d, want 9 (complete digraph over cycle)", got)
	}
}

func TestNegationStratified(t *testing.T) {
	e := NewEngine()
	e.MustParse(`
		Reachable(X) :- Start(X).
		Reachable(Y) :- Reachable(X), Edge(X, Y).
		Unreachable(X) :- Vertex(X), !Reachable(X).
	`)
	for _, v := range []string{"a", "b", "c", "d"} {
		e.Assert("Vertex", v)
	}
	e.Assert("Start", "a")
	e.Assert("Edge", "a", "b")
	e.Assert("Edge", "c", "d")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Count("Unreachable"); got != 2 {
		t.Errorf("Unreachable = %d, want 2", got)
	}
	if len(e.Query("Unreachable", "c")) != 1 || len(e.Query("Unreachable", "d")) != 1 {
		t.Error("c and d should be unreachable")
	}
}

func TestUnstratifiableProgram(t *testing.T) {
	e := NewEngine()
	e.MustParse(`
		P(X) :- Q(X), !R(X).
		R(X) :- Q(X), !P(X).
	`)
	e.Assert("Q", "a")
	if err := e.Run(); err == nil {
		t.Error("negation through a cycle should be rejected")
	}
}

func TestFactsInProgramText(t *testing.T) {
	e := NewEngine()
	e.MustParse(`
		Edge(a, b).
		Edge(b, c).
		Path(X, Y) :- Edge(X, Y).
		Path(X, Z) :- Path(X, Y), Edge(Y, Z).
	`)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Count("Path"); got != 3 {
		t.Errorf("Path = %d, want 3", got)
	}
}

func TestQuotedConstantsAndComments(t *testing.T) {
	e := NewEngine()
	e.MustParse(`
		% seed facts
		Owns("alice", "file.txt").
		CanRead(U, F) :- Owns(U, F). % owners read
	`)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Query("CanRead", "alice", "file.txt")) != 1 {
		t.Error("quoted constants not handled")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"P(X) :- ",            // empty body atom
		"P(X)",                // non-ground fact
		"P(X) :- Q(Y)",        // unsafe head variable
		"P(X) :- Q(X), !R(Y)", // unsafe negated variable
		"P :- Q(X)",           // malformed head atom
		"!P(a)",               // negated head
	}
	for _, prog := range bad {
		e := NewEngine()
		if err := e.Parse(prog); err == nil {
			t.Errorf("Parse(%q) should fail", prog)
		}
	}
}

func TestAnonymousVariables(t *testing.T) {
	e := NewEngine()
	e.MustParse(`
		HasChild(X) :- Parent(X, _).
	`)
	e.Assert("Parent", "a", "b")
	e.Assert("Parent", "a", "c")
	e.Assert("Parent", "b", "c")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Count("HasChild"); got != 2 {
		t.Errorf("HasChild = %d, want 2", got)
	}
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	e := NewEngine()
	e.Assert("R", "a")
	e.Assert("R", "a", "b")
}

func TestPointsToShapedProgram(t *testing.T) {
	// A miniature Andersen-style analysis: alloc, move, store/load through
	// a single field.
	e := NewEngine()
	e.MustParse(`
		PointsTo(V, H) :- Alloc(V, H).
		PointsTo(A, H) :- Move(A, B), PointsTo(B, H).
		FieldPointsTo(H1, F, H2) :- Store(X, F, Y), PointsTo(X, H1), PointsTo(Y, H2).
		PointsTo(A, H2) :- Load(A, X, F), PointsTo(X, H1), FieldPointsTo(H1, F, H2).
	`)
	e.Assert("Alloc", "p", "h1")
	e.Assert("Alloc", "q", "h2")
	e.Assert("Move", "r", "p")
	e.Assert("Store", "r", "f", "q") // r.f = q
	e.Assert("Load", "s", "p", "f")  // s = p.f
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Query("PointsTo", "s", "h2")) != 1 {
		t.Error("s should point to h2 through the field")
	}
	if len(e.Query("PointsTo", "r", "h1")) != 1 {
		t.Error("r should alias p")
	}
	if len(e.Query("PointsTo", "s", "h1")) != 0 {
		t.Error("s should not point to h1")
	}
}

func TestSymTab(t *testing.T) {
	st := NewSymTab()
	a := st.Intern("alpha")
	b := st.Intern("beta")
	if a == b {
		t.Error("distinct strings must get distinct symbols")
	}
	if st.Intern("alpha") != a {
		t.Error("interning is not idempotent")
	}
	if st.Name(a) != "alpha" {
		t.Error("Name round trip failed")
	}
	if _, ok := st.Lookup("gamma"); ok {
		t.Error("Lookup of unknown symbol should fail")
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d, want 2", st.Len())
	}
}

// Property: reachability computed by Datalog matches a direct BFS on random
// small graphs.
func TestReachabilityMatchesBFS(t *testing.T) {
	f := func(edges [][2]uint8) bool {
		const n = 8
		adj := make([][]int, n)
		e := NewEngine()
		e.MustParse(`
			Reach(X, Y) :- E(X, Y).
			Reach(X, Z) :- Reach(X, Y), E(Y, Z).
		`)
		for _, ed := range edges {
			u, v := int(ed[0]%n), int(ed[1]%n)
			adj[u] = append(adj[u], v)
			e.Assert("E", fmt.Sprint(u), fmt.Sprint(v))
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
				got := len(e.Query("Reach", fmt.Sprint(s), fmt.Sprint(v))) == 1
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
	NewEngine().MustParse("P(X) :- ")
}
