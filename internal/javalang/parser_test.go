package javalang

import (
	"strings"
	"testing"

	"namer/internal/ast"
)

func mustParse(t *testing.T, src string) *ast.Node {
	t.Helper()
	root, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse failed: %v\nsource:\n%s", err, src)
	}
	return root
}

func TestParseHelloClass(t *testing.T) {
	src := `package com.example.app;

import java.util.List;
import java.util.*;

public class Hello extends Base implements Runnable, Closeable {
    private int count = 0;
    private String name;

    public Hello(String name) {
        this.name = name;
    }

    public void run() {
        count++;
    }
}
`
	root := mustParse(t, src)
	if root.Children[0].Kind != ast.PackageDecl {
		t.Errorf("first child should be PackageDecl, got %v", root.Children[0].Kind)
	}
	if root.Children[1].Kind != ast.Import || root.Children[2].Kind != ast.Import {
		t.Error("imports not parsed")
	}
	cls := root.Children[3]
	if cls.Kind != ast.ClassDef {
		t.Fatalf("want ClassDef, got %v", cls.Kind)
	}
	var bases *ast.Node
	for _, c := range cls.Children {
		if c.Kind == ast.Bases {
			bases = c
		}
	}
	if bases == nil || len(bases.Children) != 3 {
		t.Fatalf("bases: %v", bases)
	}
	// this.name = name inside constructor becomes Assign with AttributeStore.
	var assign *ast.Node
	cls.Walk(func(n *ast.Node) bool {
		if n.Kind == ast.Assign {
			assign = n
		}
		return true
	})
	if assign == nil {
		t.Fatal("constructor assignment not found")
	}
	if assign.Children[0].Kind != ast.AttributeStore {
		t.Errorf("target should be AttributeStore, got %v", assign.Children[0].Kind)
	}
	recv := assign.Children[0].Children[0]
	if recv.Children[0].Value != "this" {
		t.Errorf("receiver should be this, got %q", recv.Children[0].Value)
	}
}

func TestParseTable6Examples(t *testing.T) {
	src := `public class T {
    void m(Exception e, double chainlength, ProgressDialog progDialog, Context context, Intent i) {
        e.getStackTrace();
        for (double j = 1; j < chainlength; j++) {
            use(j);
        }
        try {
            risky();
        } catch (Throwable t) {
            t.printStackTrace();
        }
        context.startActivity(i);
        progDialog.dismiss();
        ConektaObject resource = new ConektaObject();
    }
}
`
	root := mustParse(t, src)
	var forStmt, try, local *ast.Node
	calls := 0
	root.Walk(func(n *ast.Node) bool {
		switch n.Kind {
		case ast.For:
			forStmt = n
		case ast.Try:
			try = n
		case ast.LocalVarDecl:
			if n.Children[0].Children[0].Value == "ConektaObject" {
				local = n
			}
		case ast.Call:
			calls++
		}
		return true
	})
	if forStmt == nil {
		t.Fatal("for statement not found")
	}
	// for-init declares double j = 1.
	init := forStmt.Children[0]
	if init.Kind != ast.LocalVarDecl || init.Children[0].Children[0].Value != "double" {
		t.Errorf("for-init: %s", init)
	}
	if try == nil {
		t.Fatal("try not found")
	}
	var handler *ast.Node
	for _, c := range try.Children {
		if c.Kind == ast.ExceptHandler {
			handler = c
		}
	}
	if handler == nil || handler.Children[0].Children[0].Value != "Throwable" {
		t.Errorf("catch clause: %v", handler)
	}
	if local == nil {
		t.Error("ConektaObject declaration not found")
	} else if local.Children[2].Kind != ast.New {
		t.Errorf("init should be New, got %v", local.Children[2].Kind)
	}
	if calls < 5 {
		t.Errorf("calls = %d, want >= 5", calls)
	}
}

func TestParseStatements(t *testing.T) {
	src := `class T {
    void m(int[] a, List<String> xs) {
        int x = 1, y = 2;
        x += 3;
        if (x > 0) { y = 1; } else if (x < 0) y = 2; else y = 3;
        while (x-- > 0) y++;
        do { y--; } while (y > 0);
        for (String s : xs) { use(s); }
        switch (x) {
        case 1:
            y = 1;
            break;
        default:
            y = 0;
        }
        String[] parts = new String[10];
        int[] nums = {1, 2, 3};
        a[0] = nums[1];
        Object o = (Object) xs;
        boolean b = o instanceof List;
        synchronized (this) { y = 4; }
        assert y >= 0 : "neg";
        label: for (;;) { break label; }
        try (Reader r = open(); Writer w = create()) { r.read(); }
        throw new IllegalStateException("bad");
    }
}
`
	root := mustParse(t, src)
	var kinds = map[ast.Kind]int{}
	root.Walk(func(n *ast.Node) bool {
		kinds[n.Kind]++
		return true
	})
	for _, want := range []ast.Kind{
		ast.LocalVarDecl, ast.AugAssign, ast.If, ast.Elif, ast.Else,
		ast.While, ast.DoWhile, ast.ForEach, ast.Switch, ast.CaseClause,
		ast.New, ast.ArrayLit, ast.SubscriptStore, ast.Cast, ast.InstanceOf,
		ast.SyncBlock, ast.AssertStmt, ast.LabeledStmt, ast.Try,
		ast.WithItem, ast.Throw, ast.Break,
	} {
		if kinds[want] == 0 {
			t.Errorf("kind %v not produced", want)
		}
	}
}

func TestParseGenericsAndAnnotations(t *testing.T) {
	src := `@Entity
@Table(name = "users")
public class Repo<T extends Comparable<T>> {
    private Map<String, List<T>> index = new HashMap<String, List<T>>();

    @Override
    public <R> R transform(Function<T, R> fn, T item) {
        return fn.apply(item);
    }

    public void forEach(Consumer<? super T> c) {
        index.values().forEach(list -> list.forEach(x -> c.accept(x)));
    }

    public Supplier<T> supplier() {
        return this::create;
    }
}
`
	root := mustParse(t, src)
	var lambdas, methods int
	root.Walk(func(n *ast.Node) bool {
		switch n.Kind {
		case ast.Lambda:
			lambdas++
		case ast.FunctionDef:
			methods++
		}
		return true
	})
	if lambdas != 2 {
		t.Errorf("lambdas = %d, want 2", lambdas)
	}
	if methods != 3 {
		t.Errorf("methods = %d, want 3", methods)
	}
}

func TestParseEnum(t *testing.T) {
	src := `public enum Color implements Named {
    RED("red"), GREEN("green"), BLUE("blue");

    private final String label;

    Color(String label) {
        this.label = label;
    }

    public String label() { return label; }
}
`
	root := mustParse(t, src)
	en := root.Children[0]
	if en.Kind != ast.EnumDef {
		t.Fatalf("want EnumDef, got %v", en.Kind)
	}
	var consts, ctors int
	en.Walk(func(n *ast.Node) bool {
		switch n.Kind {
		case ast.FieldDecl:
			consts++
		case ast.CtorDef:
			ctors++
		}
		return true
	})
	if consts < 4 { // 3 enum constants + 1 field
		t.Errorf("field decls = %d, want >= 4", consts)
	}
	if ctors != 1 {
		t.Errorf("ctors = %d, want 1", ctors)
	}
}

func TestParseInterface(t *testing.T) {
	src := `public interface Store extends AutoCloseable {
    String get(String key);
    default void warm() { }
}
`
	root := mustParse(t, src)
	if root.Children[0].Kind != ast.InterfaceDef {
		t.Fatalf("want InterfaceDef, got %v", root.Children[0].Kind)
	}
}

func TestParseAnonymousClass(t *testing.T) {
	src := `class T {
    void m() {
        Runnable r = new Runnable() {
            public void run() {
                tick();
            }
        };
        r.run();
    }
}
`
	root := mustParse(t, src)
	var anonMethods int
	root.Walk(func(n *ast.Node) bool {
		if n.Kind == ast.New {
			n.Walk(func(x *ast.Node) bool {
				if x.Kind == ast.FunctionDef {
					anonMethods++
				}
				return true
			})
			return false
		}
		return true
	})
	if anonMethods != 1 {
		t.Errorf("anonymous class methods = %d, want 1", anonMethods)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"class {",
		"class T { void m( { } }",
		"class T { int x = ; }",
		`class T { String s = "unterminated; }`,
		"class T { void m() { if } }",
		// An annotation argument list cut off at EOF once indexed past
		// the token slice instead of failing.
		"@A(",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseTernaryAndOperators(t *testing.T) {
	src := `class T {
    int m(int a, int b) {
        int c = a > b ? a : b;
        long mask = (a & 0xFF) | (b << 8) ^ ~a;
        boolean ok = a != 0 && b != 0 || a == b;
        int shifted = a >>> 2;
        return ok ? c : -c;
    }
}
`
	root := mustParse(t, src)
	var ternaries int
	root.Walk(func(n *ast.Node) bool {
		if n.Kind == ast.Ternary {
			ternaries++
		}
		return true
	})
	if ternaries != 2 {
		t.Errorf("ternaries = %d, want 2", ternaries)
	}
}

func TestStatementsProjectionJava(t *testing.T) {
	src := `class C {
    void m() {
        int x = 0;
        for (int i = 0; i < 10; i++) {
            x += i;
        }
    }
}
`
	root := mustParse(t, src)
	stmts := ast.Statements(root)
	// class, method, int x=0, for header, x+=i  (for-init NOT double counted)
	if len(stmts) != 5 {
		for _, s := range stmts {
			t.Log(s.Root.Fingerprint())
		}
		t.Fatalf("got %d statements, want 5", len(stmts))
	}
	var forCount, declCount int
	for _, s := range stmts {
		switch s.Root.Kind {
		case ast.For:
			forCount++
		case ast.LocalVarDecl:
			declCount++
		}
	}
	if forCount != 1 || declCount != 1 {
		t.Errorf("for=%d localdecl=%d, want 1 and 1", forCount, declCount)
	}
}

func TestParseThrowsClause(t *testing.T) {
	src := `class T {
    T(int x) throws IOException { this.x = x; }
    void m() throws IOException, java.sql.SQLException { risky(); }
}`
	root := mustParse(t, src)
	var methods int
	root.Walk(func(n *ast.Node) bool {
		if n.Kind == ast.FunctionDef || n.Kind == ast.CtorDef {
			methods++
		}
		return true
	})
	if methods != 2 {
		t.Errorf("methods = %d, want 2", methods)
	}
}

func TestErrorMessages(t *testing.T) {
	_, err := Parse("class T { int x = ; }")
	if err == nil || !strings.Contains(err.Error(), "line") {
		t.Errorf("error should carry a line number: %v", err)
	}
	_, err = Parse("class T { String s = \"oops; }")
	if err == nil || !strings.Contains(err.Error(), "line") {
		t.Errorf("lex error should carry a line number: %v", err)
	}
}
