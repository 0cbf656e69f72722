package pointsto

import (
	"testing"

	"namer/internal/samples"
)

// BenchmarkAnalyze times one serial Analyze pass over each sample (the
// generated Python and Java corpora, plus the GOROOT sample when its
// hash matches the pinned one) and reports the facts generated and the
// files that fell back to the context-insensitive run.
func BenchmarkAnalyze(b *testing.B) {
	all, skipped, err := samples.All()
	if err != nil {
		b.Fatal(err)
	}
	if skipped != "" {
		b.Logf("goroot sample skipped: %s", skipped)
	}
	for _, s := range all {
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			facts, fallbacks := 0, 0
			for i := 0; i < b.N; i++ {
				facts, fallbacks = 0, 0
				for _, f := range s.Files {
					st := Analyze(f.Root, s.Lang, DefaultOptions()).Stats
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
