package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"namer/internal/ast"
	"namer/internal/astplus"
	"namer/internal/corpus"
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
		io, fo := inc.Analysis.Stmts[i].Obs, full.Analysis.Stmts[i].Obs
		if len(io) != len(fo) {
			t.Fatalf("%s: statement %d has %d observations incremental vs %d full", label, i, len(io), len(fo))
		}
		for j := range io {
			if io[j] != fo[j] {
				t.Fatalf("%s: statement %d observation %d diverged", label, i, j)
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

// TestOverlayIncrementalReuse: a body edit inside one def walks and
// matches only the edited statement and reuses every other one, and the
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
		t.Fatal("previous analysis not used for a single-line body edit")
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
// statement and analyzes only the appended ones.
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
	if inc.ReusedStatements != first.Statements {
		t.Fatalf("append at EOF reused %d of %d previous statements", inc.ReusedStatements, first.Statements)
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
	// The untouched previous analysis is still reused by a later good edit.
	fixed := strings.Replace(overlayFixture, "download_cnt = download_count + 1",
		"download_cnt = download_count + 3", 1)
	inc, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: fixed},
		first.Analysis, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Incremental || inc.ReusedStatements == 0 {
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

// reuseAndFull analyzes before, then after both against that analysis
// and from scratch.
func reuseAndFull(t *testing.T, sys *System, before, after string) (inc, full *OverlayResult) {
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

// TestOverlayCRLFContinuation: an edit on the continuation line of a
// CRLF statement re-analyzes that statement, and the result equals a
// full analysis.
func TestOverlayCRLFContinuation(t *testing.T) {
	edited := strings.Replace(crlfContinuation, "upload_count", "download_count", 1)
	inc, full := reuseAndFull(t, NewSystem(DefaultConfig(ast.Python)), crlfContinuation, edited)
	sameOverlay(t, "crlf continuation", inc, full)
}

// TestOverlayCRLFBlankLine: an edit after a blank CRLF line inside a def
// body reuses exactly as many statements as with LF line endings, and
// the result equals a full analysis.
func TestOverlayCRLFBlankLine(t *testing.T) {
	sys := NewSystem(DefaultConfig(ast.Python))
	edit := func(src string) string { return strings.Replace(src, "return x", "return x + 1", 1) }
	lf, _ := reuseAndFull(t, sys, crlfBlankInDef, edit(crlfBlankInDef))
	crlfSrc := strings.ReplaceAll(crlfBlankInDef, "\n", "\r\n")
	inc, full := reuseAndFull(t, sys, crlfSrc, edit(crlfSrc))
	sameOverlay(t, "crlf blank line", inc, full)
	if !lf.Incremental || lf.ReusedStatements == 0 {
		t.Fatalf("LF: incremental=%v reused %d", lf.Incremental, lf.ReusedStatements)
	}
	if !inc.Incremental || inc.ReusedStatements != lf.ReusedStatements {
		t.Fatalf("CRLF: incremental=%v reused %d of %d; LF reused %d of %d",
			inc.Incremental, inc.ReusedStatements, inc.Statements, lf.ReusedStatements, lf.Statements)
	}
}

// originFixture: the points-to origin of handle in use() is whatever
// make() returns.
const originFixture = `class Reader:
    pass

class Writer:
    pass

def make():
    return Reader()

def use():
    handle = make()
    return handle
`

// TestOverlayEditChangesOriginElsewhere: an edit inside make() changes
// the origin of handle in use(), two defs away, which nobody edited.
// The overlay must carry the new origin, as a full analysis does.
func TestOverlayEditChangesOriginElsewhere(t *testing.T) {
	sys := NewSystem(DefaultConfig(ast.Python))
	edited := strings.Replace(originFixture, "return Reader()", "return Writer()", 1)
	inc, full := reuseAndFull(t, sys, originFixture, edited)
	sameOverlay(t, "origin", inc, full)
	var handle string
	for _, ps := range full.Analysis.Statements() {
		if ps.SourceLine == "handle = make()" {
			handle = ps.PS.Paths[0].Key()
		}
	}
	if !strings.Contains(handle, "Writer") {
		t.Fatalf("handle's first path %q carries no Writer origin; the fixture tests nothing", handle)
	}
	if inc.ReusedStatements == 0 {
		t.Fatal("no statement reused")
	}
}

// TestStmtKeyCoversKindAndOrigin: the reuse key tells apart two
// statements that differ only in one node's Kind (which the fingerprint
// leaves out) or only in one identifier's origin label, and ignores
// lines.
func TestStmtKeyCoversKindAndOrigin(t *testing.T) {
	stmt := func(lit ast.Kind, line int) *ast.Node {
		n := ast.NewNode(ast.Assign, ast.NewLeaf(ast.Ident, "count"), ast.NewLeaf(lit, "1"))
		n.Line, n.Children[0].Line = line, line
		return n
	}
	labelled := func(label string) astplus.OriginFunc {
		return func(n *ast.Node) (string, bool) { return label, n.Kind == ast.Ident }
	}
	key := func(n *ast.Node, origin astplus.OriginFunc) string {
		return string(appendStmtKey(nil, n, origin))
	}
	num, str := stmt(ast.NumLit, 1), stmt(ast.StrLit, 1)
	if num.Fingerprint() != str.Fingerprint() {
		t.Fatal("the fixture's two statements should share a fingerprint")
	}
	if key(num, nil) == key(str, nil) {
		t.Error("statements differing only in a literal's Kind share a key")
	}
	if key(num, labelled("Reader")) == key(num, labelled("Writer")) {
		t.Error("statements differing only in an origin label share a key")
	}
	if key(num, labelled("Reader")) != key(stmt(ast.NumLit, 7), labelled("Reader")) {
		t.Error("the key depends on the statement's line")
	}
}

// TestOverlayEquivalenceProperty drives random line edits over real
// systems, points-to analysis on, and checks after every edit that the
// overlay result against the previous analysis matches a from-scratch
// analysis, or that both fail — for Python, Java and Go, and for one
// edit between analyses and for two.
func TestOverlayEquivalenceProperty(t *testing.T) {
	t.Run("one edit", func(t *testing.T) {
		sys, c, _ := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
		checkEditChains(t, sys, corpusFiles(c, 12), "#", 11)
	})

	t.Run("two edits", func(t *testing.T) {
		sys := NewSystem(DefaultConfig(ast.Python))
		rng := rand.New(rand.NewSource(23))
		prev, err := sys.AnalyzeOverlay(&InputFile{Repo: "r", Path: "f.py", Source: overlayFixture}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		reused := 0
		for trial := 0; trial < 60; trial++ {
			final := randomLineEdit(rng, randomLineEdit(rng, overlayFixture, "#"), "#")
			file := &InputFile{Repo: "r", Path: "f.py", Source: final}
			full, fullErr := sys.AnalyzeOverlay(file, nil, nil)
			inc, incErr := sys.AnalyzeOverlay(file, prev.Analysis, nil)
			if (fullErr == nil) != (incErr == nil) {
				t.Fatalf("trial %d: full analysis error %v, overlay error %v", trial, fullErr, incErr)
			}
			if fullErr != nil {
				continue
			}
			sameOverlay(t, fmt.Sprintf("trial %d", trial), inc, full)
			reused += inc.ReusedStatements
		}
		t.Logf("%d reused statements verified against full analyses", reused)
	})

	t.Run("java", func(t *testing.T) {
		sys, c, _ := buildSystem(t, ast.Java, smallSystemConfig(ast.Java), smallCorpusConfig(ast.Java))
		checkEditChains(t, sys, corpusFiles(c, 8), "//", 13)
	})

	t.Run("go", func(t *testing.T) {
		sys := NewSystem(DefaultConfig(ast.Go))
		checkEditChains(t, sys, []*InputFile{{Repo: "r", Path: "f.go", Source: goOverlayFixture}}, "//", 17)
	})
}

// goOverlayFixture is a Go file with several functions, one of whose
// results flows into another.
const goOverlayFixture = `package store

import "strings"

type Reader struct{ count int }

type Writer struct{ count int }

func open(name string) *Reader {
	upload := strings.TrimSpace(name)
	return &Reader{count: len(upload)}
}

func use(name string) int {
	handle := open(name)
	handleCount := handle.count + 1
	return handleCount
}

func (w *Writer) Write(data []byte) (int, error) {
	w.count += len(data)
	return len(data), nil
}
`

// corpusFiles returns up to n files of the corpus as overlay inputs.
func corpusFiles(c *corpus.Corpus, n int) []*InputFile {
	var files []*InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &InputFile{Repo: r.Name, Path: f.Path, Source: f.Source})
		}
	}
	return files[:min(n, len(files))]
}

// checkEditChains applies a chain of 12 random line edits (comment is
// the language's line-comment token) to each file, and checks every
// overlay result against the previous good analysis with a full
// analysis of the same content. It fails if no statement was ever
// reused, which would make the check vacuous.
func checkEditChains(t *testing.T, sys *System, files []*InputFile, comment string, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reused, checked := 0, 0
	for _, f := range files {
		prev, err := sys.AnalyzeOverlay(f, nil, nil)
		if err != nil {
			t.Fatalf("%s: initial analysis: %v", f.Path, err)
		}
		content := f.Source
		for step := 0; step < 12; step++ {
			file := &InputFile{Repo: f.Repo, Path: f.Path, Source: randomLineEdit(rng, content, comment)}
			full, fullErr := sys.AnalyzeOverlay(file, nil, nil)
			inc, incErr := sys.AnalyzeOverlay(file, prev.Analysis, nil)
			if (fullErr == nil) != (incErr == nil) {
				t.Fatalf("%s step %d: full analysis error %v, overlay error %v", f.Path, step, fullErr, incErr)
			}
			if fullErr != nil {
				continue // keep prev and content, try another edit
			}
			sameOverlay(t, fmt.Sprintf("%s step %d", f.Path, step), inc, full)
			reused += inc.ReusedStatements
			checked++
			prev, content = inc, file.Source
		}
	}
	if reused == 0 {
		t.Fatal("no statement was reused; the property test is vacuous")
	}
	t.Logf("%d edits, %d reused statements verified against full analyses", checked, reused)
}

// randomLineEdit applies one synthetic line edit to content; comment is
// the language's line-comment token.
func randomLineEdit(rng *rand.Rand, content, comment string) string {
	lines := strings.Split(content, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	if len(lines) == 0 {
		return "x = 1\n"
	}
	i := rng.Intn(len(lines))
	switch rng.Intn(5) {
	case 0: // append a comment to one line
		lines[i] = lines[i] + "  " + comment + " edited"
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
		ins = append(ins, comment+" inserted")
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
