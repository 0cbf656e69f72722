package pointsto

import (
	"strings"
	"testing"

	"namer/internal/ast"
	"namer/internal/javalang"
	"namer/internal/pylang"
)

func parsePy(t *testing.T, src string) *ast.Node {
	t.Helper()
	root, err := pylang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func parseJava(t *testing.T, src string) *ast.Node {
	t.Helper()
	root, err := javalang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// originAt finds the Ident terminal with the given value (nth occurrence)
// and returns its origin.
func originAt(res *Result, root *ast.Node, value string, occurrence int) (string, bool) {
	var found *ast.Node
	count := 0
	root.Walk(func(n *ast.Node) bool {
		if n.Kind == ast.Ident && n.Value == value {
			if count == occurrence {
				found = n
			}
			count++
		}
		return true
	})
	if found == nil {
		return "", false
	}
	return res.OriginOf(found)
}

func TestFigure2SelfOrigin(t *testing.T) {
	src := `class TestPicture(TestCase):
    def test_angle_picture(self):
        self.assertTrue(picture.rotate_angle, 90)
`
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	// Both self and assertTrue resolve to the external base TestCase.
	var selfID, attrID *ast.Node
	root.Walk(func(n *ast.Node) bool {
		if n.Kind == ast.AttributeLoad && attrName(n) == "assertTrue" {
			selfID = n.Children[0].Children[0]
			attrID = n.Children[1].Children[0]
		}
		return true
	})
	if selfID == nil {
		t.Fatal("assertTrue access not found")
	}
	if o, ok := res.OriginOf(selfID); !ok || o != "TestCase" {
		t.Errorf("origin(self) = %q,%v; want TestCase", o, ok)
	}
	if o, ok := res.OriginOf(attrID); !ok || o != "TestCase" {
		t.Errorf("origin(assertTrue) = %q,%v; want TestCase", o, ok)
	}
}

func TestSelfMethodDefinedLocally(t *testing.T) {
	src := `class Widget(Base):
    def helper(self):
        pass
    def run(self):
        self.helper()
`
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	if o, ok := originAt(res, root, "helper", 1); !ok || o != "Widget" {
		t.Errorf("origin(helper use) = %q,%v; want Widget", o, ok)
	}
}

func TestImportAliasOrigin(t *testing.T) {
	src := `import numpy as N

def f(sz):
    return N.array(sz)
`
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	if o, ok := originAt(res, root, "N", 1); !ok || o != "numpy" {
		t.Errorf("origin(N) = %q,%v; want numpy", o, ok)
	}
	if o, ok := originAt(res, root, "array", 0); !ok || o != "numpy" {
		t.Errorf("origin(array) = %q,%v; want numpy", o, ok)
	}
}

func TestConstructorFlow(t *testing.T) {
	src := `class Picture:
    def __init__(self):
        self.angle = 0

def f():
    p = Picture()
    q = p
    return q
`
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	if o, ok := originAt(res, root, "p", 0); !ok || o != "Picture" {
		t.Errorf("origin(p) = %q,%v; want Picture", o, ok)
	}
	if o, ok := originAt(res, root, "q", 0); !ok || o != "Picture" {
		t.Errorf("origin(q store) = %q,%v; want Picture", o, ok)
	}
	if o, ok := originAt(res, root, "q", 1); !ok || o != "Picture" {
		t.Errorf("origin(q use) = %q,%v; want Picture", o, ok)
	}
}

func TestInterproceduralReturn(t *testing.T) {
	src := `class Foo:
    pass

def make():
    return Foo()

def use():
    x = make()
    return x
`
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	if o, ok := originAt(res, root, "x", 0); !ok || o != "Foo" {
		t.Errorf("origin(x) = %q,%v; want Foo", o, ok)
	}
}

func TestBranchMergeLosesUniqueOrigin(t *testing.T) {
	src := `class A:
    pass
class B:
    pass

def f(cond):
    if cond:
        x = A()
    else:
        x = B()
    return x
`
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	// Last x (the use in return) must not have a unique origin.
	if o, ok := originAt(res, root, "x", 2); ok {
		t.Errorf("origin(x after merge) = %q; want none", o)
	}
}

func TestModifiedValueIsTop(t *testing.T) {
	src := `def f():
    x = compute()
    x += 1
    return x
`
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	// First x: origin is compute (external call allocates a fresh site).
	if o, ok := originAt(res, root, "x", 0); !ok || o != "compute" {
		t.Errorf("origin(x before modify) = %q,%v; want compute", o, ok)
	}
	// x after += is modified: no origin.
	if o, ok := originAt(res, root, "x", 2); ok {
		t.Errorf("origin(x after modify) = %q; want none", o)
	}
}

func TestExternalCallFreshSite(t *testing.T) {
	src := `def f():
    data = fetch_remote()
    return data
`
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	if o, ok := originAt(res, root, "data", 0); !ok || o != "fetch_remote" {
		t.Errorf("origin(data) = %q,%v; want fetch_remote", o, ok)
	}
}

func TestExceptHandlerOrigin(t *testing.T) {
	src := `def f():
    try:
        risky()
    except ValueError as e:
        handle(e)
`
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	if o, ok := originAt(res, root, "e", 0); !ok || o != "ValueError" {
		t.Errorf("origin(e) = %q,%v; want ValueError", o, ok)
	}
}

func TestJavaCatchAndDeclaredTypes(t *testing.T) {
	src := `public class T {
    void m() {
        StringWriter outputWriter = new StringWriter();
        outputWriter.write("x");
        try {
            risky();
        } catch (Throwable e) {
            e.printStackTrace();
        }
    }
}
`
	root := parseJava(t, src)
	res := AnalyzeFile(root, ast.Java)
	if o, ok := originAt(res, root, "outputWriter", 0); !ok || o != "StringWriter" {
		t.Errorf("origin(outputWriter) = %q,%v; want StringWriter", o, ok)
	}
	if o, ok := originAt(res, root, "e", 0); !ok || o != "Throwable" {
		t.Errorf("origin(e) = %q,%v; want Throwable", o, ok)
	}
}

func TestJavaThisResolution(t *testing.T) {
	src := `public class Worker extends BaseTask {
    void run() {
        this.schedule();
    }
}
`
	root := parseJava(t, src)
	res := AnalyzeFile(root, ast.Java)
	// schedule not defined in Worker: resolves to external base BaseTask.
	if o, ok := originAt(res, root, "schedule", 0); !ok || o != "BaseTask" {
		t.Errorf("origin(schedule) = %q,%v; want BaseTask", o, ok)
	}
}

func TestJavaParamTypeOrigin(t *testing.T) {
	src := `public class T {
    void handle(Intent intent) {
        use(intent);
    }
}
`
	root := parseJava(t, src)
	res := AnalyzeFile(root, ast.Java)
	if o, ok := originAt(res, root, "intent", 1); !ok || o != "Intent" {
		t.Errorf("origin(intent param use) = %q,%v; want Intent", o, ok)
	}
}

func TestDefiningClass(t *testing.T) {
	src := `class Base:
    def shared(self):
        pass

class Mid(Base):
    pass

class Leaf(Mid, External):
    def own(self):
        pass
`
	root := parsePy(t, src)
	fi := Collect(root, ast.Python)
	tests := []struct {
		class, attr, want string
	}{
		{"Leaf", "own", "Leaf"},
		{"Leaf", "shared", "Base"},
		{"Leaf", "unknown", "External"}, // falls to first external base
		{"Base", "unknown", "Base"},     // no bases: the class itself
		{"Mid", "shared", "Base"},
	}
	for _, tt := range tests {
		if got := fi.DefiningClass(tt.class, tt.attr); got != tt.want {
			t.Errorf("DefiningClass(%s, %s) = %q, want %q", tt.class, tt.attr, got, tt.want)
		}
	}
}

func TestCollectImports(t *testing.T) {
	src := `import os
import numpy as np
from unittest import TestCase
from os.path import join as pjoin
`
	root := parsePy(t, src)
	fi := Collect(root, ast.Python)
	want := map[string]string{
		"os":       "os",
		"np":       "numpy",
		"TestCase": "unittest.TestCase",
		"pjoin":    "os.path.join",
	}
	for k, v := range want {
		if fi.Imports[k] != v {
			t.Errorf("Imports[%q] = %q, want %q", k, fi.Imports[k], v)
		}
	}
}

func TestCollectJavaImports(t *testing.T) {
	src := `package p;
import java.util.List;
import java.io.*;
class C {}
`
	root := parseJava(t, src)
	fi := Collect(root, ast.Java)
	if fi.Imports["List"] != "java.util.List" {
		t.Errorf("Imports[List] = %q", fi.Imports["List"])
	}
	if _, ok := fi.Imports["java.io.*"]; ok {
		t.Error("wildcard import should not bind a name")
	}
	if _, ok := fi.Classes["C"]; !ok {
		t.Error("class C not collected")
	}
}

func TestRecursionTerminates(t *testing.T) {
	src := `def a(x):
    return b(x)

def b(x):
    return a(x)
`
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	if res.Stats.Contexts == 0 {
		t.Error("no contexts analyzed")
	}
}

func TestContextExplosionFallback(t *testing.T) {
	// A call chain with heavy fan-out: every function calls the next from
	// many sites, overflowing k=5 context strings.
	src := ""
	src += "def f0(x):\n    return x\n"
	for i := 1; i <= 12; i++ {
		src += "def f" + string(rune('0'+i%10)) + "x" + "(v):\n    return v\n"
	}
	// Build a chain with multiple call sites per function.
	src = `def leaf(x):
    return x

def l1(x):
    return leaf(leaf(leaf(leaf(x))))

def l2(x):
    return l1(l1(l1(l1(x))))

def l3(x):
    return l2(l2(l2(l2(x))))

def l4(x):
    return l3(l3(l3(l3(x))))

def l5(x):
    return l4(l4(l4(l4(x))))

def l6(x):
    return l5(l5(l5(l5(x))))
`
	root := parsePy(t, src)
	res := Analyze(root, ast.Python, Options{K: 5, MaxAvgContexts: 8})
	if !res.Stats.FellBack {
		t.Errorf("expected context-insensitive fallback, contexts=%d funcs=%d",
			res.Stats.Contexts, res.Stats.Functions)
	}
}

func TestKZeroStillWorks(t *testing.T) {
	src := `class Foo:
    pass

def make():
    return Foo()

def use():
    x = make()
    return x
`
	root := parsePy(t, src)
	res := Analyze(root, ast.Python, Options{K: 0, MaxAvgContexts: 8})
	if o, ok := originAt(res, root, "x", 0); !ok || o != "Foo" {
		t.Errorf("k=0 origin(x) = %q,%v; want Foo", o, ok)
	}
}

func TestSelfFieldFlow(t *testing.T) {
	src := `class Holder:
    def set_item(self, item):
        self._item = item

    def get_item(self):
        return self._item

    def setup(self):
        self.set_item(Payload())

class Payload:
    pass
`
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	_ = res
	// The instance heap connects set_item's store with get_item's load; we
	// only require the analysis to terminate and decorate self.
	if o, ok := originAt(res, root, "self", 1); !ok || o == "" {
		t.Error("self in set_item should have an origin")
	}
}

func TestStatsPopulated(t *testing.T) {
	src := "def f():\n    return g()\n"
	root := parsePy(t, src)
	res := AnalyzeFile(root, ast.Python)
	if res.Stats.Functions < 1 || res.Stats.Contexts < 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Info == nil {
		t.Error("Info missing")
	}
}

// The context-explosion guard at its boundaries. With k≥1 every in-file
// call expands into its own context, so a file needs 1 context per
// entry point plus one per call in the unfolded call graph; the guard
// allows MaxAvgContexts per entry point. Contexts after a fallback are
// those of the context-insensitive rerun: one per entry point.
func TestContextGuardBoundaries(t *testing.T) {
	// Four entry points (the module body, leaf, l1, l2), so the limit is
	// 32: 4 entries + 4 leaf calls in l1 + 4 l1 calls in l2 (5 contexts
	// each) + n leaf calls at module level.
	dag := func(n int) string {
		return `def leaf(x):
    return x

def l1(x):
    return leaf(leaf(leaf(leaf(x))))

def l2(x):
    return l1(l1(l1(l1(x))))
` + strings.Repeat("leaf(1)\n", n)
	}
	tests := []struct {
		name     string
		src      string
		fellBack bool
		contexts int
	}{
		{"self recursion", "def f(x):\n    return f(x)\n", true, 2},
		{"mutual recursion", "def a(x):\n    return b(x)\n\ndef b(x):\n    return a(x)\n", true, 3},
		{"recursion below a DAG", "def r(x):\n    return r(x)\n\ndef g(x):\n    return r(x)\n", true, 3},
		{"unfolded count at the limit", dag(4), false, 32},
		{"one call past the limit", dag(5), true, 4},
	}
	for _, tc := range tests {
		root := parsePy(t, tc.src)
		res := Analyze(root, ast.Python, Options{K: 5, MaxAvgContexts: 8})
		if res.Stats.FellBack != tc.fellBack || res.Stats.Contexts != tc.contexts {
			t.Errorf("%s: FellBack=%t Contexts=%d, want FellBack=%t Contexts=%d",
				tc.name, res.Stats.FellBack, res.Stats.Contexts, tc.fellBack, tc.contexts)
		}
	}
}

// pushContext must build the same context strings as splitting the
// context on "|", appending the site and keeping the last k parts.
func TestPushContextKeepsLastK(t *testing.T) {
	reference := func(ctx, site string, k int) string {
		if k <= 0 {
			return ""
		}
		parts := []string{}
		if ctx != "" {
			parts = strings.Split(ctx, "|")
		}
		parts = append(parts, site)
		if len(parts) > k {
			parts = parts[len(parts)-k:]
		}
		return strings.Join(parts, "|")
	}
	for _, ctx := range []string{"", "1", "1|2", "1|2|3", "10|200|3|4", "1|2|3|4|5", "1|2|3|4|5|6|7"} {
		for k := 0; k <= 6; k++ {
			if got, want := pushContext(ctx, 42, k), reference(ctx, "42", k); got != want {
				t.Errorf("pushContext(%q, 42, %d) = %q, want %q", ctx, k, got, want)
			}
		}
	}
}
