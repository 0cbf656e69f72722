package core

import (
	"math/rand"
	"strings"
	"testing"

	"namer/internal/ast"
)

// FuzzOverlaySplice checks the overlay's statement reuse against a full
// analysis on arbitrary before/after Python pairs, with the points-to
// analysis on: when the new content parses, the result against the
// analysis of the old content must equal a from-scratch one statement
// for statement; when it does not, both must fail. Pairs whose old
// content does not parse have no analysis to reuse and are skipped.
// Seeds: the overlay fixture under a chain of random line edits, the
// CRLF sources, file ends without newline, and the origin fixture.
func FuzzOverlaySplice(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	content := overlayFixture
	for i := 0; i < 16; i++ {
		next := randomLineEdit(rng, content, "#")
		f.Add(content, next)
		content = next
	}
	f.Add(crlfContinuation, strings.Replace(crlfContinuation, "upload_count", "download_count", 1))
	crlfSrc := strings.ReplaceAll(crlfBlankInDef, "\n", "\r\n")
	f.Add(crlfSrc, strings.Replace(crlfSrc, "return x", "return x + 1", 1))
	// A backslash on a last line without newline does not parse.
	f.Add("x = 0", "x = 0\\")
	f.Add("x = 1\ny = 2 \\\n", "x = 2\ny = 2 \\")
	f.Add(originFixture, strings.Replace(originFixture, "return Reader()", "return Writer()", 1))

	sys := NewSystem(DefaultConfig(ast.Python))
	f.Fuzz(func(t *testing.T, before, after string) {
		prev, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: before}, nil, nil)
		if err != nil {
			return
		}
		file := &InputFile{Repo: "r", Path: "f.py", Source: after}
		full, fullErr := sys.AnalyzeOverlay(file, nil, nil)
		inc, incErr := sys.AnalyzeOverlay(file, prev.Analysis, nil)
		if (fullErr == nil) != (incErr == nil) {
			t.Fatalf("full analysis error %v, overlay error %v", fullErr, incErr)
		}
		if fullErr == nil {
			sameOverlay(t, "reuse", inc, full)
		}
	})
}
