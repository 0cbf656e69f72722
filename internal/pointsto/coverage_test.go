package pointsto

import (
	"testing"

	"namer/internal/ast"
)

// Kitchen-sink programs exercising every statement and expression shape
// the fact generator handles; the test asserts termination, origin
// counts, and a handful of precise origins.

const pythonKitchenSink = `import numpy as np
from collections import OrderedDict

class Base:
    def shared(self):
        return self.data

class Sink(Base):
    LIMIT = 100

    def __init__(self, name, size=10, *args, **kwargs):
        self.name = name
        self.size = size
        self.cache = OrderedDict()

    def churn(self, items):
        total = 0
        for i, item in enumerate(items):
            total += i
        while total > 0:
            total -= 1
        else:
            total = 0
        with open(self.name) as f, self.lock():
            data = f.read()
        try:
            parsed = np.array(data)
        except (ValueError, TypeError) as err:
            parsed = None
        except Exception:
            raise
        else:
            self.cache[self.name] = parsed
        finally:
            self.close()
        x = parsed if parsed is not None else self.default()
        y = [v * 2 for v in items if v]
        z = {k: v for k, v in self.cache.items()}
        w = (a for a in items)
        del z
        assert x is not None, 'missing'
        lam = lambda q: q + total
        first, *rest = items
        a = b = self.size
        global counter
        return lam(x)

def helper(flag):
    obj = Sink('s')
    if flag:
        out = obj
    elif not flag:
        out = Sink('t')
    else:
        out = None
    return out
`

func TestPythonKitchenSink(t *testing.T) {
	root := parsePy(t, pythonKitchenSink)
	res := AnalyzeFile(root, ast.Python)
	if res.OriginCount() == 0 {
		t.Fatal("no origins computed")
	}
	if res.Stats.Functions == 0 || res.Stats.Facts == 0 {
		t.Errorf("stats: %+v", res.Stats)
	}
	// np retains its numpy origin through the try block.
	if o, ok := originAt(res, root, "np", 1); !ok || o != "numpy" {
		t.Errorf("origin(np) = %q,%v", o, ok)
	}
	// err from the except clause carries no single origin (two types).
	if o, ok := originAt(res, root, "err", 0); ok && o == "" {
		t.Errorf("origin(err) = %q unexpected empty-but-present", o)
	}
	// obj in helper points to Sink.
	if o, ok := originAt(res, root, "obj", 0); !ok || o != "Sink" {
		t.Errorf("origin(obj) = %q,%v; want Sink", o, ok)
	}
}

const javaKitchenSink = `package p;
import java.util.List;

public class Sink extends Base implements Runnable {
    private int total;
    private String label;

    public Sink(String label) {
        this.label = label;
    }

    public void run() {
        int[] nums = {1, 2, 3};
        List<String> items = build();
        for (String s : items) {
            use(s);
        }
        do {
            total--;
        } while (total > 0);
        switch (total) {
        case 1:
            total = 2;
            break;
        default:
            total = 0;
        }
        Object o = (Object) items;
        boolean b = o instanceof List;
        int c = b ? 1 : 0;
        total += c;
        synchronized (this) {
            total++;
        }
        label: for (;;) { break label; }
        try (Reader r = open()) {
            r.read();
        } catch (IOException | RuntimeException e) {
            throw new IllegalStateException("bad", e);
        } finally {
            use(nums[0]);
        }
        Runnable fn = () -> use(total);
        Sink other = new Sink("x");
        other.run();
        assert total >= 0 : "neg";
    }
}
`

func TestJavaKitchenSink(t *testing.T) {
	root := parseJava(t, javaKitchenSink)
	res := AnalyzeFile(root, ast.Java)
	if res.OriginCount() == 0 {
		t.Fatal("no origins computed")
	}
	// other points to the in-file Sink instance.
	if o, ok := originAt(res, root, "other", 0); !ok || o != "Sink" {
		t.Errorf("origin(other) = %q,%v; want Sink", o, ok)
	}
	// this.label store decorates this with the generic Object origin.
	var thisIdent *ast.Node
	root.Walk(func(n *ast.Node) bool {
		if n.Kind == ast.AttributeStore {
			recv := n.Children[0]
			if recv.Kind == ast.NameLoad && recv.Children[0].Value == "this" && thisIdent == nil {
				thisIdent = recv.Children[0]
			}
		}
		return true
	})
	if thisIdent == nil {
		t.Fatal("this store not found")
	}
	if o, ok := res.OriginOf(thisIdent); !ok || o != "Object" {
		t.Errorf("origin(this in store) = %q,%v; want Object", o, ok)
	}
}

func TestHeapOrigin(t *testing.T) {
	tests := map[heapKey]string{
		{'H', "numpy"}:      "numpy",
		{'H', "a.b.c"}:      "c",
		{'I', "Widget"}:     "Widget",
		{'C', "Widget"}:     "Widget",
		{0, "$none"}:        "",
		{'H', "os.path"}:    "path",
		{'I', "pkg.Widget"}: "Widget",
	}
	for in, want := range tests {
		if got := in.origin(); got != want {
			t.Errorf("%c:%s origin = %q, want %q", in.kind, in.name, got, want)
		}
	}
}

func TestExprName(t *testing.T) {
	root := parsePy(t, "x = a.b.c\ny = fn()\n")
	var attr *ast.Node
	root.Walk(func(n *ast.Node) bool {
		if n.Kind == ast.AttributeLoad && attrName(n) == "c" {
			attr = n
		}
		return true
	})
	if attr == nil {
		t.Fatal("a.b.c not found")
	}
	if got := exprName(attr); got != "a.b.c" {
		t.Errorf("exprName = %q", got)
	}
	var call *ast.Node
	root.Walk(func(n *ast.Node) bool {
		if n.Kind == ast.Call {
			call = n
		}
		return true
	})
	if got := exprName(call); got != "" {
		t.Errorf("exprName(call) = %q, want empty", got)
	}
}
