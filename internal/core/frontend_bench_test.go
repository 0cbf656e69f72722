package core

import (
	"testing"

	"namer/internal/samples"
)

// BenchmarkFrontEnd times one serial ProcessFile pass (points-to,
// statement projection, AST+, name paths, statement index) over each
// pre-parsed sample: the generated Python and Java corpora, plus the
// GOROOT sample when its hash matches the pinned one. B/op and
// allocs/op are the front end's allocation per pass.
func BenchmarkFrontEnd(b *testing.B) {
	all, skipped, err := samples.All()
	if err != nil {
		b.Fatal(err)
	}
	if skipped != "" {
		b.Logf("goroot sample skipped: %s", skipped)
	}
	for _, s := range all {
		files := make([]*InputFile, len(s.Files))
		for i, f := range s.Files {
			files[i] = &InputFile{Path: f.Path, Source: f.Source, Root: f.Root}
		}
		sys := NewSystem(DefaultConfig(s.Lang))
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			stmts := 0
			for i := 0; i < b.N; i++ {
				stmts = 0
				for _, f := range files {
					stmts += len(sys.ProcessFile(f))
				}
			}
			b.ReportMetric(float64(stmts), "statements")
		})
	}
}
