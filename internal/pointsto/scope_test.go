package pointsto

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"namer/internal/ast"
	"namer/internal/javalang"
	"namer/internal/pylang"
)

// scopeSummary renders what Analyze computes for src: its Stats and the
// origin of every decorated Ident, in pre-order, as line:name=origin.
func scopeSummary(t *testing.T, lang ast.Language, src string) string {
	t.Helper()
	parse := pylang.Parse
	if lang == ast.Java {
		parse = javalang.Parse
	}
	root, err := parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res := Analyze(root, lang, DefaultOptions())
	st := res.Stats
	parts := []string{fmt.Sprintf("functions=%d contexts=%d facts=%d fellback=%t",
		st.Functions, st.Contexts, st.Facts, st.FellBack)}
	root.Walk(func(n *ast.Node) bool {
		if o, ok := res.OriginOf(n); ok {
			parts = append(parts, fmt.Sprintf("%d:%s=%s", n.Line, n.Value, o))
		}
		return true
	})
	return strings.Join(parts, " ")
}

// Branch scopes are overlays on the scope they leave. These sources pin
// their merges (a type a branch deleted, one a branch tombstones over the
// outer scope, nested if/elif/else, while, for, try/except/finally, a
// Java switch, and a self a branch synthesizes at version 0, which an
// unbound outer self equals) to the Stats and origins the analysis computed when every
// branch was a full copy of its parent scope.
func TestBranchScopesMergeAsCopies(t *testing.T) {
	for _, c := range []struct {
		name string
		lang ast.Language
		src  string
		want string
	}{
		{"fall-through keeps the type a branch deleted", ast.Python, `class A:
    def m(self):
        return self

def f(c, g):
    x = A()
    if c:
        x = g()
    y = x.m()
    return y
`, "functions=3 contexts=4 facts=15 fellback=false 3:self=A 6:x=A 8:x=g 9:m=A"},
		{"tombstone hides the outer type", ast.Python, `class A:
    def m(self):
        return self

def f(c, g):
    x = A()
    if c:
        x = A()
    else:
        x = g()
    y = x.m()
    return y
`, "functions=3 contexts=3 facts=13 fellback=false 3:self=A 6:x=A 11:y=m 12:y=m"},
		{"nested if, while, for and try", ast.Python, `import os

class A:
    def m(self):
        return self

class B(A):
    def n(self):
        return self.m()

def f(c, items, g):
    x = A()
    y = B()
    z = os.path
    try:
        while c:
            if c:
                x = B()
                z = x
            elif g:
                y = g()
                if items:
                    y = B()
                else:
                    del y
            else:
                for it in items:
                    x = A()
                    it.close()
            w = x.m()
    except ValueError as e:
        y = A()
        e.args
    finally:
        z.join
    u = y.n()
    v = x.m()
    return z
`, "functions=4 contexts=6 facts=66 fellback=false 5:self=A 9:self=A 9:m=A 12:x=A 13:y=B 14:os=os 14:path=os 21:y=g 23:y=B 25:y=g 30:w=m 31:e=ValueError 32:y=A 33:e=ValueError 33:args=ValueError 36:u=n 37:m=A"},
		{"java switch inside a loop", ast.Java, `class A { A m() { return this; } }
class B extends A { }
class T {
    A f(int c, A p) {
        A x = new B();
        A y = p;
        while (c > 0) {
            switch (c) {
                case 1: x = new A(); break;
                case 2: x = p; y = new B(); break;
                default: if (c > 3) { y = x; } else { x = y; }
            }
            c--;
        }
        try { y = x.m(); } catch (RuntimeException e) { y = new A(); }
        return y.m();
    }
}
`, "functions=3 contexts=4 facts=42 fellback=false 1:this=A 5:x=B 6:y=A 6:p=A 10:p=A 10:y=B 11:y=B 11:x=B 11:y=A 15:m=A 15:e=RuntimeException 15:y=A"},
		{"self synthesized in a branch", ast.Python, `class A:
    def m():
        if c:
            g(self.x)
        return self.y
`, "functions=2 contexts=2 facts=6 fellback=false 4:self=A 4:x=A 5:self=A 5:y=A"},
	} {
		if got := scopeSummary(t, c.lang, c.src); got != c.want {
			t.Errorf("%s:\ngot  %s\nwant %s", c.name, got, c.want)
		}
	}
}

// A type deleted in a branch is a tombstone in that branch only: the
// scope it left, and the fall-through branch reading through it, keep it.
func TestTypeDeletedInBranchStaysInBranch(t *testing.T) {
	s := &scope{}
	s.setVersion("x", 1)
	s.setType("x", "A")
	b := s.branch()
	b.setVersion("x", 2)
	b.setType("x", "")
	fall := s.branch()
	if got := b.typeOf("x"); got != "" {
		t.Errorf("branch type of x = %q, want it deleted", got)
	}
	if got, got2 := s.typeOf("x"), fall.typeOf("x"); got != "A" || got2 != "A" {
		t.Errorf("type of x = %q in the outer scope, %q in the fall-through, want A in both", got, got2)
	}
	if v, _ := fall.version("x"); v != 1 {
		t.Errorf("fall-through version of x = %d, want the outer 1", v)
	}
	if len(fall.env) != 0 || len(fall.types) != 0 {
		t.Errorf("fall-through holds writes it never made: %v %v", fall.env, fall.types)
	}
	s.setType("x", "")
	if _, ok := s.types["x"]; ok {
		t.Error("a function's own scope keeps a tombstone instead of deleting")
	}
}

// The merged version of a variable exceeds every branch's version, and
// every branch that binds it moves into the merged version.
func TestMergedVersionExceedsBranches(t *testing.T) {
	root := parsePy(t, `def f(c):
    x = 1
    if c:
        x = 2
        x = 3
    else:
        x = 4
    return x
`)
	a := newAnalyzer(root, Collect(root, ast.Python), 5)
	if !a.run(DefaultOptions()) {
		t.Fatal("analysis fell back")
	}
	names := map[int32]string{}
	merged, top := int32(-1), int32(-1)
	for k, id := range a.vars {
		names[id] = fmt.Sprintf("%s#%d", k.name, k.ver)
		if k.name == "x" && k.ver > top {
			merged, top = id, k.ver
		}
	}
	if got := names[merged]; got != "x#4" {
		t.Fatalf("highest version of x is %s, want x#4 (the then branch ends at x#3)", got)
	}
	var from []string
	for _, m := range a.facts.move {
		if m[0] == merged {
			from = append(from, names[m[1]])
		}
	}
	sort.Strings(from)
	// The else branch's x = 4 is its own version 2, sharing the key of
	// the then branch's first assignment.
	if got := strings.Join(from, " "); got != "x#2 x#3" {
		t.Errorf("x#4 moves from %s, want x#2 x#3", got)
	}
}
