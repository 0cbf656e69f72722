package astplus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"namer/internal/ast"
	"namer/internal/namepath"
	"namer/internal/pointsto"
	"namer/internal/samples"
)

// oracleLimits are the path limits every oracle check runs at: none
// (-1 and 0), the edge of one, and the paper's 10.
var oracleLimits = []int{-1, 0, 1, 3, 10}

// checkWalk compares w.Paths(stmt, limit) with the oracle
// namepath.Extract(Transform(stmt, origin), limit), where origin must be
// the function w was made with, and checks that the walk's prefixes own
// their memory. It returns the number of paths compared.
func checkWalk(t testing.TB, w *Walker, stmt *ast.Statement, origin OriginFunc, limit int) int {
	t.Helper()
	got := w.Paths(stmt, limit)
	want := namepath.Extract(Transform(stmt, origin), limit)
	err := diffPaths(got, want)
	if err == nil {
		err = prefixesOwnMemory(got)
	}
	if err != nil {
		t.Fatalf("limit %d, statement at line %d: %v\n%s", limit, stmt.Line, err, stmt.Root.Dump())
	}
	return len(got)
}

// diffPaths reports the first difference between the walk's paths and
// the oracle's, in order, prefix, end and both keys; the keys must also
// be the ones an un-memoized Path recomputes.
func diffPaths(got, want []namepath.Path) error {
	if len(got) != len(want) {
		return fmt.Errorf("walk gave %d paths, oracle %d:\nwalk   %v\noracle %v", len(got), len(want), got, want)
	}
	for i, g := range got {
		o := want[i]
		plain := namepath.Path{Prefix: g.Prefix, End: g.End}
		switch {
		case !g.Same(o) || g.End != o.End:
			return fmt.Errorf("path %d: walk %q, oracle %q", i, g, o)
		case g.Key() != o.Key() || g.PrefixKey() != o.PrefixKey():
			return fmt.Errorf("path %d: walk keys %q/%q, oracle %q/%q", i, g.Key(), g.PrefixKey(), o.Key(), o.PrefixKey())
		case g.Key() != plain.Key() || g.PrefixKey() != plain.PrefixKey():
			return fmt.Errorf("path %d: memoized keys %q/%q, recomputed %q/%q", i, g.Key(), g.PrefixKey(), plain.Key(), plain.PrefixKey())
		}
	}
	return nil
}

// prefixesOwnMemory checks that no two prefixes share memory, counting
// the spare capacity an append would write into, and, for statements of
// a few paths, that appending to one prefix and overwriting its first
// element leaves every path's key as it was.
func prefixesOwnMemory(paths []namepath.Path) error {
	type span struct {
		lo, hi uintptr
		path   int
	}
	var spans []span
	for i, p := range paths {
		if cap(p.Prefix) > 0 {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(p.Prefix)))
			spans = append(spans, span{lo, lo + uintptr(cap(p.Prefix))*unsafe.Sizeof(namepath.Elem{}), i})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("prefixes of paths %d and %d share memory", spans[i-1].path, spans[i].path)
		}
	}
	if len(paths) > 16 {
		return nil
	}
	before := make([]string, len(paths))
	for i, p := range paths {
		before[i] = namepath.Path{Prefix: p.Prefix, End: p.End}.Key()
	}
	for i := range paths {
		grown := append(paths[i].Prefix, namepath.Elem{Value: "X", Index: 9})
		grown[0] = namepath.Elem{Value: "Z", Index: 7}
		for j, p := range paths {
			if got := (namepath.Path{Prefix: p.Prefix, End: p.End}).Key(); got != before[j] {
				return fmt.Errorf("appending to path %d changed path %d: %q, was %q", i, j, got, before[j])
			}
		}
	}
	return nil
}

// The walk equals the oracle on every statement of the Python, Java and
// GOROOT samples, with origins from the points-to analysis and without,
// at every oracle limit. One Walker per file serves all its statements
// at all limits, so scratch left by one statement must not leak into the
// next.
func TestWalkMatchesTransformOnSamples(t *testing.T) {
	all, skipped, err := samples.All()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != "" {
		t.Logf("goroot sample skipped: %s", skipped)
	}
	for _, s := range all {
		for _, withOrigins := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/origins=%v", s.Name, withOrigins), func(t *testing.T) {
				paths, origins := 0, 0
				for _, f := range s.Files {
					var origin OriginFunc
					if withOrigins {
						origin = pointsto.AnalyzeFile(f.Root, s.Lang).OriginOf
					}
					w := NewWalker(origin)
					for _, stmt := range ast.Statements(f.Root) {
						for _, limit := range oracleLimits {
							paths += checkWalk(t, w, stmt, origin, limit)
						}
						// Every path's last step leaves a NumST(k) node,
						// unless an origin node sits under it.
						for _, p := range w.Paths(stmt, 0) {
							if !strings.HasPrefix(p.Prefix[len(p.Prefix)-1].Value, "NumST(") {
								origins++
							}
						}
					}
				}
				if withOrigins && origins == 0 {
					t.Error("no path passes through an origin step; the origin rule went unchecked")
				}
				t.Logf("%d paths compared, %d through an origin step", paths, origins)
			})
		}
	}
}

// longName has 70 subtokens, past the NumST label table.
var longName = strings.Repeat("ab_", 69) + "ab"

// identValues are the identifier spellings random trees draw from: an
// empty one (its path ends in ε), ones with no subtoken ("_"), one, two
// and three subtokens, and longName.
var identValues = []string{"", "_", "x", "assertTrue", "rotated_picture_name", "HTTPServer2", longName}

// randomStatement builds a statement-shaped tree from r: calls and
// lambdas, New with Body children among its arguments, definitions and
// lambdas with and without Params, statement kinds with no children,
// literals, operators, every identValues spelling, and now and then a
// call of 64 or more arguments. Most roots are ExprStmt wrappers, some
// of which the AST+ elides.
func randomStatement(r *rand.Rand) *ast.Statement {
	var build func(depth int) *ast.Node
	leaf := func() *ast.Node {
		switch r.Intn(8) {
		case 0:
			return &ast.Node{Kind: ast.NumLit, Value: "3"}
		case 1:
			return &ast.Node{Kind: ast.StrLit, Value: "'s'"}
		case 2:
			return &ast.Node{Kind: []ast.Kind{ast.BoolLit, ast.NullLit}[r.Intn(2)], Value: "v"}
		case 3:
			return &ast.Node{Kind: ast.OpTok, Value: "+"}
		case 4:
			k := []ast.Kind{ast.Pass, ast.Return, ast.Body, ast.Params, ast.Call}[r.Intn(5)]
			return ast.NewNode(k)
		default:
			return &ast.Node{Kind: ast.Ident, Value: identValues[r.Intn(len(identValues))]}
		}
	}
	kids := func(n *ast.Node, depth, count int) *ast.Node {
		for i := 0; i < count; i++ {
			n.Children = append(n.Children, build(depth+1))
		}
		return n
	}
	build = func(depth int) *ast.Node {
		if depth >= 5 || r.Intn(3) == 0 {
			return leaf()
		}
		switch r.Intn(9) {
		case 0:
			if r.Intn(8) == 0 {
				n := ast.NewNode(ast.Call, build(depth+1))
				for i := 64 + r.Intn(3); i > 0; i-- {
					n.Children = append(n.Children, leaf())
				}
				return n
			}
			return kids(ast.NewNode(ast.Call), depth, 1+r.Intn(3))
		case 1:
			n := kids(ast.NewNode(ast.New), depth, 1+r.Intn(3))
			if r.Intn(2) == 0 {
				n.Children = append(n.Children, kids(ast.NewNode(ast.Body), depth, r.Intn(2)))
			}
			return n
		case 2, 3:
			def := []ast.Kind{ast.FunctionDef, ast.CtorDef, ast.Lambda}[r.Intn(3)]
			n := ast.NewNode(def, &ast.Node{Kind: ast.Ident, Value: identValues[r.Intn(len(identValues))]})
			if r.Intn(3) > 0 {
				n.Children = append(n.Children, kids(ast.NewNode(ast.Params), depth, r.Intn(4)))
			}
			return kids(n, depth, r.Intn(2))
		default:
			k := []ast.Kind{ast.Assign, ast.AttributeLoad, ast.NameLoad, ast.Return, ast.BinOp}[r.Intn(5)]
			return kids(ast.NewNode(k), depth, 1+r.Intn(3))
		}
	}
	var root *ast.Node
	switch r.Intn(4) {
	case 0, 1:
		root = ast.NewNode(ast.ExprStmt, build(1))
	case 2:
		root = ast.NewNode(ast.ExprStmt, build(1), build(1))
	default:
		root = build(0)
	}
	return &ast.Statement{Root: root, Line: 1}
}

// randomOrigin labels some identifiers by their spelling, and says ok
// for an empty label too, which Transform reads as no origin.
func randomOrigin(n *ast.Node) (string, bool) {
	return []string{"", "TestCase", "str"}[len(n.Value)%3], len(n.Value)%2 == 0
}

// The walk equals the oracle on random trees, with and without origins,
// at every oracle limit, and the trees reach every case the generator
// is there for.
func TestWalkMatchesTransformOnRandomTrees(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var seen struct{ epsilon, newBody, numArgs64, numST64, noParams, emptyStmt int }
	walkers := map[bool]*Walker{false: NewWalker(nil), true: NewWalker(randomOrigin)}
	for i := 0; i < 3000; i++ {
		stmt := randomStatement(r)
		for withOrigins, w := range walkers {
			var origin OriginFunc
			if withOrigins {
				origin = randomOrigin
			}
			for _, limit := range oracleLimits {
				checkWalk(t, w, stmt, origin, limit)
			}
		}
		for _, p := range walkers[false].Paths(stmt, 0) {
			if p.Symbolic() {
				seen.epsilon++
			}
		}
		stmt.Root.Walk(func(n *ast.Node) bool {
			switch {
			case n.Kind == ast.New && len(n.Children) > 0 && n.Children[len(n.Children)-1].Kind == ast.Body:
				seen.newBody++
			case n.Kind == ast.Call && len(n.Children) > 64:
				seen.numArgs64++
			case n.Kind == ast.Ident && n.Value == longName:
				seen.numST64++
			case (n.Kind == ast.Lambda || n.Kind == ast.CtorDef) && len(n.Children) > 0 && findParams(n) == nil:
				seen.noParams++
			case (n.Kind == ast.Pass || n.Kind == ast.Body) && len(n.Children) == 0:
				seen.emptyStmt++
			}
			return true
		})
	}
	if seen.epsilon == 0 || seen.newBody == 0 || seen.numArgs64 == 0 || seen.numST64 == 0 || seen.noParams == 0 || seen.emptyStmt == 0 {
		t.Errorf("random trees missed a case: %+v", seen)
	}
}
