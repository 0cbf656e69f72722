package core

import (
	"os"
	"path/filepath"
	"testing"

	"namer/internal/ast"
	"namer/internal/parallel"
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

// BenchmarkLoadDirectory times LoadDirectory (walk, read and parse) over
// the Python sample and, when its hash matches, the GOROOT sample, each
// written to a temporary corpus directory; the serial sub-benchmarks time
// the one-worker reference path over the same directory.
func BenchmarkLoadDirectory(b *testing.B) {
	var all []samples.Sample
	py, err := samples.Synthetic(ast.Python)
	if err != nil {
		b.Fatal(err)
	}
	if s, ok, reason := samples.Goroot(); ok {
		all = append(all, s)
	} else {
		b.Logf("goroot sample skipped: %s", reason)
	}
	all = append(all, py)
	for _, s := range all {
		dir := b.TempDir()
		for _, f := range s.Files {
			path := filepath.Join(dir, filepath.FromSlash(f.Path))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(f.Source), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		for _, serial := range []bool{false, true} {
			name, workers := s.Name, parallel.Degree(0)
			if serial {
				name, workers = s.Name+"/serial", 1
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					files, errs := loadDirectory(dir, s.Lang, workers)
					if len(files) != len(s.Files) || len(errs) != 0 {
						b.Fatalf("loaded %d of %d files, errors %v", len(files), len(s.Files), errs)
					}
				}
			})
		}
	}
}
