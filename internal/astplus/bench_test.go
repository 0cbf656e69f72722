package astplus

import (
	"testing"

	"namer/internal/ast"
	"namer/internal/namepath"
	"namer/internal/pointsto"
	"namer/internal/samples"
)

// BenchPathsSink keeps the benchmarked calls' results alive.
var BenchPathsSink []namepath.Path

// BenchmarkPaths times the name paths of every statement of the GOROOT
// sample, with origins and at the default limit of 10 paths per
// statement, as the front end takes them (walk, one Walker per file) and
// as the oracle does (transform+extract: Transform, then
// namepath.Extract). The points-to analysis runs before the timer.
func BenchmarkPaths(b *testing.B) {
	s, ok, reason := samples.Goroot()
	if !ok {
		b.Skip(reason)
	}
	type file struct {
		origin OriginFunc
		stmts  []*ast.Statement
	}
	files := make([]file, len(s.Files))
	for i, f := range s.Files {
		files[i] = file{pointsto.AnalyzeFile(f.Root, s.Lang).OriginOf, ast.Statements(f.Root)}
	}
	const limit = 10
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range files {
				w := NewWalker(f.origin)
				for _, stmt := range f.stmts {
					BenchPathsSink = w.Paths(stmt, limit)
				}
			}
		}
	})
	b.Run("transform+extract", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range files {
				for _, stmt := range f.stmts {
					BenchPathsSink = namepath.Extract(Transform(stmt, f.origin), limit)
				}
			}
		}
	})
}
