package golang

import (
	goast "go/ast"
	"go/parser"
	gotoken "go/token"
	"strings"
	"testing"

	uast "namer/internal/ast"
)

// lineSources exercise the converter's line lookup: //line directives in
// both comment forms, CRLF line ends, raw strings and block comments that
// span lines, and a last line without a newline.
var lineSources = []string{
	"package p\n\n//line gen.y:500\nfunc f(limit int) int {\n\tmaxCount := limit\n\treturn maxCount\n}\n",
	"package p\r\n\r\nimport \"fmt\"\r\n\r\n//line other.go:1\r\nfunc g(a, b int) {\r\n\tfmt.Println(a,\r\n\t\tb)\r\n}\r\n",
	"package p\n\nvar text = `first\nsecond\r\nthird`\n\n/* a block\ncomment */ var after = text\n\nfunc h() string { /*line x.go:9:3*/ return `a\nb` + text }",
	"package p\n/*line gen.go:40:1*/type T struct {\n\tName string\n\tT2\n}\n\n//line :7\nfunc (t *T) Get(key string) (string, error) {\n\tswitch key {\n\tcase \"a\", `b\n`:\n\t\treturn t.Name, nil\n\t}\n\tfor i := range key {\n\t\t_ = i\n\t}\n\treturn \"\", nil\n}",
	"package p",
}

// TestLinesMatchFileSet checks the converter's line lookup against
// FileSet.PositionFor(pos, false) on every go/ast node, visited in the
// order Inspect gives, and at every offset of the file in both
// directions, which moves the cursor forwards, backwards and across
// lines.
func TestLinesMatchFileSet(t *testing.T) {
	for i, src := range lineSources {
		fset := gotoken.NewFileSet()
		file, err := parser.ParseFile(fset, "src.go", src, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		tf := fset.File(file.FileStart)
		c := newConverter(tf)
		nodes, moved := 0, 0
		goast.Inspect(file, func(n goast.Node) bool {
			if n == nil {
				return false
			}
			nodes++
			if fset.PositionFor(n.Pos(), true).Line != fset.PositionFor(n.Pos(), false).Line {
				moved++
			}
			if got, want := c.pos(n), fset.PositionFor(n.Pos(), false).Line; got != want {
				t.Errorf("source %d: %T at offset %d: line %d, FileSet says %d",
					i, n, int(n.Pos())-tf.Base(), got, want)
			}
			return true
		})
		if nodes == 0 {
			t.Fatalf("source %d: no nodes visited", i)
		}
		if strings.Contains(src, "line ") && moved == 0 {
			t.Errorf("source %d: its //line directive moves no node", i)
		}
		for off := 0; off <= tf.Size(); off++ {
			for _, o := range []int{off, tf.Size() - off} {
				p := tf.Pos(o)
				if got, want := c.pos(&goast.Ident{NamePos: p}), fset.PositionFor(p, false).Line; got != want {
					t.Errorf("source %d: offset %d: line %d, FileSet says %d", i, o, got, want)
				}
			}
		}
		if got := c.pos(&goast.Ident{}); got != 0 {
			t.Errorf("source %d: NoPos gave line %d, want 0", i, got)
		}
	}
}

// FuzzParseGo checks that Parse neither panics nor puts a node outside the
// file on any source go/parser accepts.
func FuzzParseGo(f *testing.F) {
	for _, src := range lineSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		root, err := Parse(src)
		if err != nil {
			return
		}
		last := 1 + strings.Count(src, "\n")
		root.Walk(func(n *uast.Node) bool {
			if n.Line < 0 || n.Line > last {
				t.Fatalf("%v %q at line %d of a %d-line source", n.Kind, n.Value, n.Line, last)
			}
			return true
		})
	})
}
