package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"namer/internal/ast"
)

// overlayFixture is a Python file with several top-level regions, so
// single-def edits have a prefix and a suffix to reuse.
const overlayFixture = `import os

def upload(upload_count, upload_pos):
    upload_cnt = upload_count + 1
    return upload_cnt

@cache
def download(download_count):
    download_cnt = download_count + 1
    return download_cnt

class Worker:
    def run(self, task_count):
        task_cnt = task_count + 1
        return task_cnt

def main():
    return upload(1, 2) + download(3)
`

// sameOverlay fails the test unless the two results agree on every
// statement (line, fingerprint, source line, name-path keys) and every
// deduplicated violation.
func sameOverlay(t *testing.T, label string, inc, full *OverlayResult) {
	t.Helper()
	is, fs := inc.Analysis.Statements(), full.Analysis.Statements()
	if len(is) != len(fs) {
		t.Fatalf("%s: %d statements incremental vs %d full", label, len(is), len(fs))
	}
	for i := range is {
		if is[i].Line != fs[i].Line || is[i].Fingerprint != fs[i].Fingerprint {
			t.Fatalf("%s: statement %d diverged: %d/%s vs %d/%s",
				label, i, is[i].Line, is[i].Fingerprint, fs[i].Line, fs[i].Fingerprint)
		}
		if is[i].SourceLine != fs[i].SourceLine {
			t.Fatalf("%s: statement %d source line diverged: %q vs %q",
				label, i, is[i].SourceLine, fs[i].SourceLine)
		}
		ip, fp := is[i].PS.Paths, fs[i].PS.Paths
		if len(ip) != len(fp) {
			t.Fatalf("%s: statement %d has %d paths incremental vs %d full", label, i, len(ip), len(fp))
		}
		for j := range ip {
			if ip[j].Key() != fp[j].Key() {
				t.Fatalf("%s: statement %d path %d diverged: %s vs %s", label, i, j, ip[j].Key(), fp[j].Key())
			}
		}
	}
	iv, fv := inc.Violations, full.Violations
	if len(iv) != len(fv) {
		t.Fatalf("%s: %d violations incremental vs %d full", label, len(iv), len(fv))
	}
	for i := range iv {
		a, b := iv[i], fv[i]
		if a.Stmt.Line != b.Stmt.Line || a.Detail.Original != b.Detail.Original ||
			a.Detail.Suggested != b.Detail.Suggested {
			t.Fatalf("%s: violation %d diverged: line %d %s->%s vs line %d %s->%s", label, i,
				a.Stmt.Line, a.Detail.Original, a.Detail.Suggested,
				b.Stmt.Line, b.Detail.Original, b.Detail.Suggested)
		}
	}
}

// TestOverlayIncrementalReuse: a body edit inside one def re-analyzes
// only that region and reuses every other statement, and the spliced
// result is identical to a from-scratch analysis.
func TestOverlayIncrementalReuse(t *testing.T) {
	sys := NewSystem(DefaultConfig(ast.Python))
	f := &InputFile{Repo: "r", Path: "f.py", Source: overlayFixture}
	first, err := sys.AnalyzeOverlay(f, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Incremental || first.Statements == 0 {
		t.Fatalf("first analysis: incremental=%v statements=%d", first.Incremental, first.Statements)
	}

	edited := strings.Replace(overlayFixture, "download_cnt = download_count + 1",
		"download_cnt = download_count + 2", 1)
	inc, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: edited}, first.Analysis, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Incremental {
		t.Fatal("region splice not taken for a single-line body edit")
	}
	if inc.ReusedStatements == 0 || inc.ReusedStatements >= inc.Statements {
		t.Fatalf("reused %d of %d statements; want partial reuse", inc.ReusedStatements, inc.Statements)
	}
	full, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: edited}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameOverlay(t, "body edit", inc, full)
}

// TestOverlayAppendAtEOF: appending a new def reuses every previous
// statement and analyzes only the appended region.
func TestOverlayAppendAtEOF(t *testing.T) {
	sys := NewSystem(DefaultConfig(ast.Python))
	first, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: overlayFixture}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	appended := overlayFixture + "\ndef extra(extra_count):\n    return extra_count + 1\n"
	inc, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: appended}, first.Analysis, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Incremental {
		t.Fatal("append at EOF did not take the region splice")
	}
	full, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: appended}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameOverlay(t, "append", inc, full)
	if inc.Statements <= first.Statements {
		t.Fatalf("appended def added no statements: %d -> %d", first.Statements, inc.Statements)
	}
}

// TestOverlayParseErrorKeepsPrev: mid-keystroke garbage fails the scan
// and the previous analysis stays usable for the next (fixed) edit.
func TestOverlayParseErrorKeepsPrev(t *testing.T) {
	sys := NewSystem(DefaultConfig(ast.Python))
	first, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: overlayFixture}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	broken := strings.Replace(overlayFixture, "def download(download_count):", "def download(:", 1)
	if _, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: broken},
		first.Analysis, nil); err == nil {
		t.Fatal("broken content analyzed without error")
	}
	// The untouched previous analysis still splices a later good edit.
	fixed := strings.Replace(overlayFixture, "download_cnt = download_count + 1",
		"download_cnt = download_count + 3", 1)
	inc, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: fixed},
		first.Analysis, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Incremental {
		t.Fatal("previous analysis unusable after a failed scan")
	}
}

// crlfContinuation is a CRLF source whose first statement continues
// onto line 2 with a backslash before the \r.
const crlfContinuation = "total_count = 1 + \\\r\nupload_count\r\ny = 3\r\n"

// crlfBlankInDef is a source with a blank line inside a def body; the
// edit below changes the body line after it.
const crlfBlankInDef = `import os

def f(a):
    x = a + 1

    return x

y = 2
z = 3
`

// noAnalysisSystem is a knowledge-free Python system with the points-to
// analysis off, where spliced and full analyses agree exactly.
func noAnalysisSystem() *System {
	cfg := DefaultConfig(ast.Python)
	cfg.UseAnalysis = false
	return NewSystem(cfg)
}

// spliceAndFull analyzes before, then after both against that analysis and
// from scratch.
func spliceAndFull(t *testing.T, sys *System, before, after string) (inc, full *OverlayResult) {
	t.Helper()
	first, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: before}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	file := &InputFile{Repo: "r", Path: "f.py", Source: after}
	if inc, err = sys.AnalyzeOverlay(file, first.Analysis, nil); err != nil {
		t.Fatal(err)
	}
	if full, err = sys.AnalyzeOverlay(file, nil, nil); err != nil {
		t.Fatal(err)
	}
	return inc, full
}

// TestOverlayCRLFContinuation: a backslash before a CRLF line ending
// continues the statement, so line 2 is no region boundary and an edit
// there re-analyzes the whole statement.
func TestOverlayCRLFContinuation(t *testing.T) {
	edited := strings.Replace(crlfContinuation, "upload_count", "download_count", 1)
	inc, full := spliceAndFull(t, noAnalysisSystem(), crlfContinuation, edited)
	sameOverlay(t, "crlf continuation", inc, full)
}

// TestOverlayCRLFBlankLine: a blank CRLF line inside a def body is no
// region boundary, so an edit after it splices exactly as with LF line
// endings.
func TestOverlayCRLFBlankLine(t *testing.T) {
	sys := noAnalysisSystem()
	edit := func(src string) string { return strings.Replace(src, "return x", "return x + 1", 1) }
	lf, _ := spliceAndFull(t, sys, crlfBlankInDef, edit(crlfBlankInDef))
	crlfSrc := strings.ReplaceAll(crlfBlankInDef, "\n", "\r\n")
	inc, full := spliceAndFull(t, sys, crlfSrc, edit(crlfSrc))
	sameOverlay(t, "crlf blank line", inc, full)
	if !lf.Incremental || lf.ReusedStatements == 0 {
		t.Fatalf("LF: incremental=%v reused %d", lf.Incremental, lf.ReusedStatements)
	}
	if !inc.Incremental || inc.ReusedStatements != lf.ReusedStatements {
		t.Fatalf("CRLF: incremental=%v reused %d of %d; LF reused %d of %d",
			inc.Incremental, inc.ReusedStatements, inc.Statements, lf.ReusedStatements, lf.Statements)
	}
}

// TestOverlayEquivalenceProperty drives random line edits over a real
// mined system (analysis ablated, where spliced and full analyses are
// defined to agree exactly) and checks after every parsable edit that
// the incremental result matches a from-scratch analysis — both for one
// edit between analyses and for two.
func TestOverlayEquivalenceProperty(t *testing.T) {
	t.Run("one edit", func(t *testing.T) {
		cfg := smallSystemConfig(ast.Python)
		cfg.UseAnalysis = false
		sys, c, _ := buildSystem(t, ast.Python, cfg, smallCorpusConfig(ast.Python))
		rng := rand.New(rand.NewSource(11))

		var files []*InputFile
		for _, r := range c.Repos {
			for _, f := range r.Files {
				files = append(files, &InputFile{Repo: r.Name, Path: f.Path, Source: f.Source})
			}
		}
		if len(files) > 12 {
			files = files[:12]
		}
		incrementals := 0
		for _, f := range files {
			prev, err := sys.AnalyzeOverlay(f, nil, nil)
			if err != nil {
				t.Fatalf("%s: initial analysis: %v", f.Path, err)
			}
			content := f.Source
			for step := 0; step < 12; step++ {
				edited := randomLineEdit(rng, content)
				file := &InputFile{Repo: f.Repo, Path: f.Path, Source: edited}
				full, fullErr := sys.AnalyzeOverlay(file, nil, nil)
				inc, incErr := sys.AnalyzeOverlay(file, prev.Analysis, nil)
				if fullErr != nil {
					// The edit broke the parse; the incremental path must
					// agree (the region parse is never authoritative).
					if incErr == nil {
						t.Fatalf("%s step %d: full analysis failed (%v) but overlay accepted the splice",
							f.Path, step, fullErr)
					}
					continue // keep prev and content, try another edit
				}
				if incErr != nil {
					t.Fatalf("%s step %d: overlay failed (%v) on parsable content", f.Path, step, incErr)
				}
				sameOverlay(t, fmt.Sprintf("%s step %d", f.Path, step), inc, full)
				if inc.Incremental {
					incrementals++
				}
				prev, content = inc, edited
			}
		}
		if incrementals == 0 {
			t.Fatal("no edit took the incremental path; the property test is vacuous")
		}
		t.Logf("%d incremental splices verified against full analyses", incrementals)
	})

	t.Run("two edits", func(t *testing.T) {
		sys := NewSystem(DefaultConfig(ast.Python))
		rng := rand.New(rand.NewSource(23))
		prev, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: overlayFixture}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		incrementals := 0
		for trial := 0; trial < 60; trial++ {
			final := randomLineEdit(rng, randomLineEdit(rng, overlayFixture))
			file := &InputFile{Repo: "r", Path: "f.py", Source: final}
			full, fullErr := sys.AnalyzeOverlay(file, nil, nil)
			inc, incErr := sys.AnalyzeOverlay(file, prev.Analysis, nil)
			if fullErr != nil {
				if incErr == nil {
					t.Fatalf("trial %d: unparsable content accepted by the splice", trial)
				}
				continue
			}
			if incErr != nil {
				t.Fatalf("trial %d: overlay failed on parsable content: %v", trial, incErr)
			}
			sameOverlay(t, fmt.Sprintf("trial %d", trial), inc, full)
			if inc.Incremental {
				incrementals++
			}
		}
		t.Logf("%d incremental splices verified against full analyses", incrementals)
	})
}

// randomLineEdit applies one synthetic line edit to content.
func randomLineEdit(rng *rand.Rand, content string) string {
	lines := strings.Split(content, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	if len(lines) == 0 {
		return "x = 1\n"
	}
	i := rng.Intn(len(lines))
	switch rng.Intn(5) {
	case 0: // tweak a numeric literal / append a suffix on one line
		lines[i] = lines[i] + "  # edited"
		return joinNL(lines)
	case 1: // duplicate a line
		dup := append([]string{}, lines[:i+1]...)
		dup = append(dup, lines[i])
		dup = append(dup, lines[i+1:]...)
		return joinNL(dup)
	case 2: // delete a line
		del := append([]string{}, lines[:i]...)
		del = append(del, lines[i+1:]...)
		return joinNL(del)
	case 3: // insert a comment line
		ins := append([]string{}, lines[:i]...)
		ins = append(ins, "# inserted")
		ins = append(ins, lines[i:]...)
		return joinNL(ins)
	default: // rename the first identifier-ish token on the line
		lines[i] = renameFirstIdent(lines[i])
		return joinNL(lines)
	}
}

func joinNL(lines []string) string { return strings.Join(lines, "\n") + "\n" }

func renameFirstIdent(line string) string {
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
			j := i
			for j < len(line) && (line[j] == '_' ||
				line[j] >= 'a' && line[j] <= 'z' || line[j] >= 'A' && line[j] <= 'Z' ||
				line[j] >= '0' && line[j] <= '9') {
				j++
			}
			word := line[i:j]
			switch word {
			case "def", "class", "return", "import", "from", "if", "else", "elif",
				"for", "while", "try", "except", "finally", "with", "pass", "lambda",
				"self", "in", "not", "and", "or", "None", "True", "False":
				return line // renaming a keyword breaks the parse more often than not
			}
			return line[:i] + word + "x" + line[j:]
		}
	}
	return line
}

// TestPyBoundaries pins the line classifier on the constructs that make
// a column-0 line *not* a safe region boundary.
func TestPyBoundaries(t *testing.T) {
	src := []string{
		"import os",          // 1: boundary
		"",                   // 2: blank
		"def f(a,",           // 3: boundary, opens bracket
		"        b):",        // 4: inside bracket
		"    return a + b",   // 5: indented
		"x = '''doc",         // 6: boundary, opens triple
		"def not_really():",  // 7: inside triple string
		"'''",                // 8: closes triple
		"y = 1 + \\",         // 9: boundary, continuation
		"2",                  // 10: continuation target
		"@decorator",         // 11: boundary (first decorator)
		"@second",            // 12: stacked decorator
		"def g():",           // 13: decorated def
		"    pass",           // 14: indented
		"try:",               // 15: boundary
		"    pass",           // 16
		"except ValueError:", // 17: clause, not a boundary
		"    pass",           // 18
		"finally:",           // 19: clause
		"    pass",           // 20
		"else_like = 1",      // 21: boundary (identifier, not keyword)
		"# comment",          // 22: comment
		"z = {'k': [1,",      // 23: boundary, opens brackets
		"       2]}",         // 24: inside
		"w = 'unterminated",  // 25: boundary, runs on
		"still_inside'",      // 26: continuation of the string
	}
	want := map[int]bool{1: true, 3: true, 6: true, 9: true, 11: true,
		15: true, 21: true, 23: true, 25: true}
	got := pyBoundaries(src)
	for i := range src {
		if got[i] != want[i+1] {
			t.Errorf("line %d %q: boundary=%v, want %v", i+1, src[i], got[i], want[i+1])
		}
	}
}

// TestOverlayDetachedFromScan: analyzing overlays leaks nothing into the
// system (corpus statements, stats), mirroring ScanFiles' guarantee.
func TestOverlayDetachedFromScan(t *testing.T) {
	sys, _, _ := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	before := len(sys.Stmts)
	if _, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: overlayFixture}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(sys.Stmts) != before {
		t.Fatalf("overlay analysis appended statements to the system: %d -> %d", before, len(sys.Stmts))
	}
}
