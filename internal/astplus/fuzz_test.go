package astplus

import (
	goast "go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"

	"namer/internal/ast"
	"namer/internal/corpus"
	"namer/internal/pointsto"
	"namer/internal/pylang"
)

// FuzzWalk parses Python source and checks the walk against the oracle
// on every statement, with and without origins, at every oracle limit.
// Seeds: the inputs FuzzParsePython starts from, a small generated
// corpus and every string literal in pylang's tests.
func FuzzWalk(f *testing.F) {
	ccfg := corpus.DefaultConfig(ast.Python)
	ccfg.Repos, ccfg.FilesPerRepo = 2, 3
	for _, r := range corpus.Generate(ccfg).Repos {
		for _, file := range r.Files {
			f.Add(file.Source)
		}
	}
	paths, _ := filepath.Glob("../pylang/*_test.go")
	if len(paths) == 0 {
		f.Fatal("no pylang test files to seed from")
	}
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
		root, err := pylang.Parse(src)
		if err != nil {
			return
		}
		stmts := ast.Statements(root)
		for _, origin := range []OriginFunc{nil, pointsto.AnalyzeFile(root, ast.Python).OriginOf} {
			w := NewWalker(origin)
			for _, stmt := range stmts {
				for _, limit := range oracleLimits {
					checkWalk(t, w, stmt, origin, limit)
				}
			}
		}
	})
}
