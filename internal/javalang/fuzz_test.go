package javalang_test

import (
	goast "go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"namer/internal/ast"
	"namer/internal/corpus"
	"namer/internal/javalang"
)

// FuzzParseJava calls Parse directly, without core.ParseSource's recover:
// on any input it must return an error or an AST whose statements all
// lie on lines of the input, and never panic. Seeds: a small generated
// corpus and every string literal in this package's tests.
func FuzzParseJava(f *testing.F) {
	ccfg := corpus.DefaultConfig(ast.Java)
	ccfg.Repos, ccfg.FilesPerRepo = 2, 3
	for _, r := range corpus.Generate(ccfg).Repos {
		for _, file := range r.Files {
			f.Add(file.Source)
		}
	}
	paths, _ := filepath.Glob("*_test.go")
	for _, path := range paths {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		goast.Inspect(file, func(n goast.Node) bool {
			if lit, ok := n.(*goast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					f.Add(s)
				}
			}
			return true
		})
	}
	f.Fuzz(func(t *testing.T, src string) {
		root, err := javalang.Parse(src)
		if err != nil {
			return
		}
		if root == nil {
			t.Fatal("Parse returned neither an AST nor an error")
		}
		lines := strings.Count(src, "\n") + 1
		for _, st := range ast.Statements(root) {
			if st.Line < 1 || st.Line > lines {
				t.Fatalf("statement at line %d of a %d-line input", st.Line, lines)
			}
		}
	})
}
