package astplus

import (
	"strings"
	"testing"

	"namer/internal/ast"
	"namer/internal/namepath"
	"namer/internal/pointsto"
	"namer/internal/pylang"
)

const figure2Src = `class TestPicture(TestCase):
    def test_angle_picture(self):
        rotated_picture_name = "IMG_2259.jpg"
        for picture in self.slide.pictures:
            if picture.relative_path == rotated_picture_name:
                picture = self.slide.pictures[0]
                self.assertTrue(picture.rotate_angle, 90)
                break
`

// transformFigure2 runs the full front half of the pipeline on the paper's
// overview example and returns the AST+ of the assertTrue statement.
func transformFigure2(t *testing.T, withOrigins bool) *ast.Node {
	t.Helper()
	root, err := pylang.Parse(figure2Src)
	if err != nil {
		t.Fatal(err)
	}
	var origin OriginFunc
	if withOrigins {
		res := pointsto.AnalyzeFile(root, ast.Python)
		origin = res.OriginOf
	}
	for _, stmt := range ast.Statements(root) {
		found := false
		stmt.Root.Walk(func(n *ast.Node) bool {
			if n.Kind == ast.Ident && n.Value == "assertTrue" {
				found = true
			}
			return true
		})
		if found {
			return Transform(stmt, origin)
		}
	}
	t.Fatal("assertTrue statement not found")
	return nil
}

func TestFigure2NamePaths(t *testing.T) {
	plus := transformFigure2(t, true)
	paths := namepath.Extract(plus, 0)
	var got []string
	for _, p := range paths {
		got = append(got, p.String())
	}
	// The exact paths of Fig. 2(d).
	want := []string{
		"NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self",
		"NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 TestCase 0 assert",
		"NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 True",
		"NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM",
	}
	for _, w := range want {
		foundIt := false
		for _, g := range got {
			if g == w {
				foundIt = true
				break
			}
		}
		if !foundIt {
			t.Errorf("missing name path:\n  want %q\n  got  %v", w, got)
		}
	}
}

func TestFigure2WithoutAnalysis(t *testing.T) {
	plus := transformFigure2(t, false)
	paths := namepath.Extract(plus, 0)
	for _, p := range paths {
		if strings.Contains(p.String(), "TestCase") {
			t.Errorf("w/o analysis there must be no origin nodes: %s", p)
		}
	}
	// Structure without origins.
	want := "NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 self"
	found := false
	for _, p := range paths {
		if p.String() == want {
			found = true
		}
	}
	if !found {
		t.Errorf("missing undedecorated path %q", want)
	}
}

func TestLiteralAbstraction(t *testing.T) {
	src := "x = 'hello'\ny = True\nz = None\nw = 3.14\n"
	root, err := pylang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	stmts := ast.Statements(root)
	var all []string
	for _, s := range stmts {
		plus := Transform(s, nil)
		for _, p := range namepath.Extract(plus, 0) {
			all = append(all, p.String())
		}
	}
	joined := strings.Join(all, "\n")
	for _, tok := range []string{"STR", "BOOL", "NULL", "NUM"} {
		if !strings.Contains(joined, tok) {
			t.Errorf("literal token %s missing in:\n%s", tok, joined)
		}
	}
	if strings.Contains(joined, "hello") || strings.Contains(joined, "3.14") {
		t.Error("raw literal values leaked into AST+")
	}
}

func TestNumArgsOnFunctionDef(t *testing.T) {
	src := "def evolve(self, a, b, **kwargs):\n    pass\n"
	root, err := pylang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	stmt := ast.Statements(root)[0]
	plus := Transform(stmt, nil)
	if plus.Kind != ast.NumArgs || plus.Value != "NumArgs(4)" {
		t.Errorf("FunctionDef wrapper = %q, want NumArgs(4)", plus.Value)
	}
}

func TestNumArgsVariadicCalls(t *testing.T) {
	for _, tt := range []struct {
		src  string
		want string
	}{
		{"f()\n", "NumArgs(0)"},
		{"f(a)\n", "NumArgs(1)"},
		{"f(a, b, c)\n", "NumArgs(3)"},
		{"f(a, b=1)\n", "NumArgs(2)"},
		{"f(*args, **kwargs)\n", "NumArgs(2)"},
		{"f(" + strings.Repeat("a, ", 63) + "a)\n", "NumArgs(64)"}, // past the label table
	} {
		root, err := pylang.Parse(tt.src)
		if err != nil {
			t.Fatal(err)
		}
		stmt := ast.Statements(root)[0]
		plus := Transform(stmt, nil)
		if plus.Value != tt.want {
			t.Errorf("%q: wrapper = %q, want %q", tt.src, plus.Value, tt.want)
		}
	}
}

func TestSubtokenSplitting(t *testing.T) {
	src := "rotated_picture_name = value\n"
	root, err := pylang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	stmt := ast.Statements(root)[0]
	plus := Transform(stmt, nil)
	var numST *ast.Node
	plus.Walk(func(n *ast.Node) bool {
		if n.Kind == ast.NumST && n.Value == "NumST(3)" {
			numST = n
		}
		return true
	})
	if numST == nil {
		t.Fatal("NumST(3) for rotated_picture_name not found")
	}
	if len(numST.Children) != 3 || numST.Children[0].Value != "rotated" ||
		numST.Children[2].Value != "name" {
		t.Errorf("subtokens: %s", numST)
	}
}

func TestTransformDoesNotMutateInput(t *testing.T) {
	root, err := pylang.Parse("self.assertTrue(x, 1)\n")
	if err != nil {
		t.Fatal(err)
	}
	stmt := ast.Statements(root)[0]
	before := stmt.Root.Fingerprint()
	Transform(stmt, nil)
	if stmt.Root.Fingerprint() != before {
		t.Error("Transform mutated the statement AST")
	}
}
