package ast_test

import (
	"testing"

	"namer/internal/ast"
	"namer/internal/astplus"
	"namer/internal/golang"
	"namer/internal/javalang"
	"namer/internal/namepath"
	"namer/internal/pointsto"
	"namer/internal/pylang"
)

// Sources with every compound form whose clauses Statements prunes:
// bodies, else/elif chains, except/catch/finally, nested functions,
// classes, lambdas and anonymous class bodies inside expressions.
var projectionSources = []struct {
	lang  ast.Language
	parse func(string) (*ast.Node, error)
	src   string
}{
	{ast.Python, pylang.Parse, `class Repo(Base):
    def load(self, path, mode="r"):
        if path.endswith(".gz"):
            data = gzip.open(path, mode).read()
        elif path:
            data = open(path, mode).read()
        else:
            data = None
        try:
            self.items = [parse(x) for x in data.split()]
        except ValueError as err:
            log.warn(err)
        finally:
            self.loaded = True
        for item in self.items:
            while item.next:
                item = item.next
        with open(path) as f:
            key = lambda v: v.name
        return sorted(self.items, key=key)
`},
	{ast.Java, javalang.Parse, `class Repo extends Base {
    private int count = 0;
    public List<Item> load(String path, int mode) {
        if (path.endsWith(".gz")) {
            data = Gzip.open(path, mode).read();
        } else if (path != null) {
            data = Files.read(path);
        } else {
            data = null;
        }
        try {
            for (int i = 0; i < data.length; i++) {
                items.add(parse(data[i]));
            }
        } catch (IOException err) {
            log.warn(err);
        } finally {
            loaded = true;
        }
        Runnable r = new Runnable() {
            public void run() { count++; }
        };
        return items;
    }
}
`},
	{ast.Go, golang.Parse, `package repo

func (r *Repo) Load(path string, mode int) ([]Item, error) {
	if strings.HasSuffix(path, ".gz") {
		data, err := gzip.Open(path, mode)
		if err != nil {
			return nil, err
		}
		r.data = data
	} else if path != "" {
		r.data = os.ReadFile(path)
	} else {
		r.data = nil
	}
	for i, x := range r.data {
		switch x.Kind {
		case 1:
			r.items = append(r.items, parse(x, i))
		default:
			fn := func(v Item) bool { return v.ok }
			r.keep(fn)
		}
	}
	return r.items, nil
}
`},
}

// prunedKinds are the kinds a statement header never contains below its
// root: body containers and the clauses that are statements of their own.
var prunedKinds = map[ast.Kind]bool{
	ast.Body: true, ast.Block: true, ast.Else: true, ast.Finally: true,
	ast.Module: true, ast.ClassDef: true, ast.InterfaceDef: true,
	ast.EnumDef: true, ast.Try: true, ast.CaseClause: true,
	ast.SyncBlock: true, ast.LabeledStmt: true, ast.Elif: true,
	ast.ExceptHandler: true,
}

// TestStatementsShareFileNodes checks the header projection: no header
// contains a pruned node below its root, every header terminal is the
// file AST's own node (so origin labels are found on it directly), and
// projecting, transforming and extracting every statement leaves the
// file AST's fingerprint unchanged.
func TestStatementsShareFileNodes(t *testing.T) {
	for _, tc := range projectionSources {
		t.Run(tc.lang.String(), func(t *testing.T) {
			root, err := tc.parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			before := root.Fingerprint()
			fileNodes := map[*ast.Node]bool{}
			root.Walk(func(n *ast.Node) bool {
				fileNodes[n] = true
				return true
			})
			res := pointsto.AnalyzeFile(root, tc.lang)
			stmts := ast.Statements(root)
			if len(stmts) < 10 {
				t.Fatalf("only %d statements projected", len(stmts))
			}
			copied, shared := 0, 0
			for _, st := range stmts {
				st.Root.Walk(func(n *ast.Node) bool {
					if n != st.Root && prunedKinds[n.Kind] {
						t.Errorf("line %d: header %s contains a %s node", st.Line, st.Root.Kind, n.Kind)
					}
					if fileNodes[n] {
						shared++
					} else {
						copied++
						if n.IsTerminal() {
							t.Errorf("line %d: terminal %q is not the file AST's node", st.Line, n.Value)
						}
					}
					return true
				})
				namepath.Extract(astplus.Transform(st, res.OriginOf), 10)
			}
			if copied == 0 || shared <= copied {
				t.Errorf("%d header nodes shared, %d copied: want mostly shared, some spine copies", shared, copied)
			}
			if after := root.Fingerprint(); after != before {
				t.Error("projection, Transform or Extract changed the file AST")
			}
		})
	}
}
