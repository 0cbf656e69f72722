package core

import (
	"math/rand"
	"strings"
	"testing"
)

// FuzzOverlaySplice checks the region splice against a full analysis on
// arbitrary before/after Python pairs, on a knowledge-free system with
// the points-to analysis off (where the two are defined to agree
// exactly): when the new content parses, the spliced result must equal
// the full one statement for statement; when it does not, both must
// fail. Pairs whose old content does not parse have nothing to splice
// against and are skipped. Seeds: the overlay fixture under a chain of
// random line edits, the CRLF sources, and file ends without newline.
func FuzzOverlaySplice(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	content := overlayFixture
	for i := 0; i < 16; i++ {
		next := randomLineEdit(rng, content)
		f.Add(content, next)
		content = next
	}
	f.Add(crlfContinuation, strings.Replace(crlfContinuation, "upload_count", "download_count", 1))
	crlfSrc := strings.ReplaceAll(crlfBlankInDef, "\n", "\r\n")
	f.Add(crlfSrc, strings.Replace(crlfSrc, "return x", "return x + 1", 1))
	// A backslash on a last line without newline does not parse; the
	// region must not gain a newline that makes it a continuation, nor
	// may the suffix hide a newline the edit removed.
	f.Add("x = 0", "x = 0\\")
	f.Add("x = 1\ny = 2 \\\n", "x = 2\ny = 2 \\")

	sys := noAnalysisSystem()
	f.Fuzz(func(t *testing.T, before, after string) {
		prev, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: before}, nil, nil)
		if err != nil {
			return
		}
		file := &InputFile{Repo: "r", Path: "f.py", Source: after}
		full, fullErr := sys.AnalyzeOverlay(file, nil, nil)
		inc, incErr := sys.AnalyzeOverlay(file, prev.Analysis, nil)
		if (fullErr == nil) != (incErr == nil) {
			t.Fatalf("full analysis error %v, splice error %v", fullErr, incErr)
		}
		if fullErr == nil {
			sameOverlay(t, "splice", inc, full)
		}
	})
}
