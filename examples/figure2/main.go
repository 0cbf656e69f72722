// Figure 2 walkthrough: runs the paper's overview example through every
// stage of the inference pipeline and prints each intermediate artifact —
// the parsed AST, the transformed AST+ (with NUM abstraction, NumArgs and
// NumST nodes, and the TestCase origin decoration from the points-to
// analysis), the extracted name paths of Fig. 2(d) (checked against the
// direct walk the pipeline uses, which builds no AST+), the violated name
// pattern of Fig. 2(e), and the suggested fix (assertTrue -> assertEqual).
package main

import (
	"fmt"

	"namer/internal/ast"
	"namer/internal/astplus"
	"namer/internal/namepath"
	"namer/internal/pattern"
	"namer/internal/pointsto"
	"namer/internal/pylang"
	"namer/internal/subtoken"
)

const src = `class TestPicture(TestCase):
    def test_angle_picture(self):
        rotated_picture_name = "IMG_2259.jpg"
        for picture in self.slide.pictures:
            if picture.relative_path == rotated_picture_name:
                picture = self.slide.pictures[0]
                self.assertTrue(picture.rotate_angle, 90)
                break
`

func main() {
	fmt.Println("== The example program of Fig. 2(a) ==")
	fmt.Print(src)

	root, err := pylang.Parse(src)
	if err != nil {
		panic(err)
	}

	// Find the buggy statement.
	var stmt *ast.Statement
	for _, s := range ast.Statements(root) {
		found := false
		s.Root.Walk(func(n *ast.Node) bool {
			if n.Kind == ast.Ident && n.Value == "assertTrue" {
				found = true
			}
			return true
		})
		if found {
			stmt = s
		}
	}
	fmt.Println("== Parsed AST of the statement (Fig. 2(b)) ==")
	fmt.Println(stmt.Root.Dump())

	// Points-to and dataflow analyses (§4.1): self resolves to TestCase.
	res := pointsto.AnalyzeFile(root, ast.Python)
	fmt.Printf("analysis: %d functions, %d contexts, %d origin decorations\n\n",
		res.Stats.Functions, res.Stats.Contexts, res.OriginCount())

	// AST+ transformation (§3.1).
	plus := astplus.Transform(stmt, res.OriginOf)
	fmt.Println("== Transformed AST+ (Fig. 2(c)) ==")
	fmt.Println(plus.Dump())

	// Name paths (Fig. 2(d)).
	paths := namepath.Extract(plus, 10)
	fmt.Println("== Name paths (Fig. 2(d)) ==")
	for _, p := range paths {
		fmt.Println(" ", p)
	}
	// The pipeline takes the same paths in one walk over the statement
	// AST, without building the AST+.
	walked := astplus.NewWalker(res.OriginOf).Paths(stmt, 10)
	if len(walked) != len(paths) {
		panic(fmt.Sprintf("direct walk gave %d name paths, AST+ %d", len(walked), len(paths)))
	}
	for i, p := range walked {
		if p.Key() != paths[i].Key() {
			panic(fmt.Sprintf("direct walk path %d is %s, AST+ path %s", i, p, paths[i]))
		}
	}
	fmt.Printf("(the direct walk over the statement AST gives the same %d paths)\n\n", len(walked))

	// The name pattern of Fig. 2(e), as it would be mined from Big Code.
	mk := func(s string) namepath.Path {
		np, ok := namepath.ParsePath(s)
		if !ok {
			panic("bad path: " + s)
		}
		return np
	}
	pat := &pattern.Pattern{
		Type: pattern.ConfusingWord,
		Condition: []namepath.Path{
			mk("NumArgs(2) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self"),
			mk("NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 0 TestCase 0 assert"),
			mk("NumArgs(2) 0 Call 2 Num 0 NumST(1) 0 NUM"),
		},
		Deduction: []namepath.Path{
			mk("NumArgs(2) 0 Call 0 AttributeLoad 1 Attr 0 NumST(2) 1 TestCase 0 Equal"),
		},
	}
	fmt.Println("== Name pattern (Fig. 2(e)) ==")
	fmt.Println(pat)

	fmt.Printf("matches the statement:   %v\n", pat.Matches(paths))
	fmt.Printf("satisfied by statement:  %v\n", pat.Satisfied(paths))
	fmt.Printf("violated by statement:   %v\n\n", pat.Violated(paths))

	v, _ := pat.Explain(paths)
	fixed := subtoken.Join("assertTrue", []string{"assert", v.Suggested})
	fmt.Printf("suggested fix: replace subtoken %q with %q — assertTrue(...) becomes %s(...)\n",
		v.Original, v.Suggested, fixed)
}
