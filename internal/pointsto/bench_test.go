package pointsto

import (
	"testing"

	"namer/internal/ast"
)

// BenchmarkAnalyze times one serial Analyze pass over each sample (the
// generated Python and Java corpora, plus the GOROOT sample when its
// hash matches the pinned one) and reports the facts generated and the
// files that fell back to the context-insensitive run.
func BenchmarkAnalyze(b *testing.B) {
	samples := []sample{syntheticSample(b, ast.Python), syntheticSample(b, ast.Java)}
	if s, ok, reason := gorootSample(b); ok {
		samples = append(samples, s)
	} else {
		b.Logf("goroot sample skipped: %s", reason)
	}
	for _, s := range samples {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			facts, fallbacks := 0, 0
			for i := 0; i < b.N; i++ {
				facts, fallbacks = 0, 0
				for _, f := range s.files {
					st := Analyze(f.root, s.lang, DefaultOptions()).Stats
					facts += st.Facts
					if st.FellBack {
						fallbacks++
					}
				}
			}
			b.ReportMetric(float64(facts), "facts")
			b.ReportMetric(float64(fallbacks), "fallbacks")
		})
	}
}
