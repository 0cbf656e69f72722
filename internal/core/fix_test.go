package core

import (
	"strings"
	"testing"

	"namer/internal/ast"
	"namer/internal/javalang"
	"namer/internal/pylang"
)

func TestApplyFixClearsViolation(t *testing.T) {
	sys, c, res := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	violations := res.Violations
	if len(violations) == 0 {
		t.Fatal("no violations")
	}
	// Index sources by (repo, path).
	srcs := map[string]string{}
	for _, r := range c.Repos {
		for _, f := range r.Files {
			srcs[r.Name+"|"+f.Path] = f.Source
		}
	}
	fixed, failed, cleared := 0, 0, 0
	for _, v := range violations {
		src := srcs[v.Stmt.Repo+"|"+v.Stmt.Path]
		newSrc, ok := ApplyFix(src, v)
		if !ok {
			failed++
			continue
		}
		fixed++
		if newSrc == src {
			t.Errorf("ApplyFix reported success without changing %s:%d", v.Stmt.Path, v.Stmt.Line)
		}
		// Reprocess the fixed file: the same pattern must no longer be
		// violated at that line.
		pf := &InputFile{Repo: v.Stmt.Repo, Path: v.Stmt.Path, Source: newSrc}
		root, err := parseByLang(newSrc, ast.Python)
		if err != nil {
			t.Errorf("fixed source does not parse: %v\n%s", err, newSrc)
			continue
		}
		pf.Root = root
		still := false
		for _, ps := range sys.ProcessFile(pf) {
			if ps.Line != v.Stmt.Line {
				continue
			}
			if ps.PS.Violated(v.Pattern) {
				still = true
			}
		}
		if !still {
			cleared++
		}
	}
	if fixed == 0 {
		t.Fatal("no fixes applied")
	}
	rate := float64(cleared) / float64(fixed)
	t.Logf("fixes: %d applied (%d not applicable), %.0f%% clear the violated pattern",
		fixed, failed, 100*rate)
	if rate < 0.9 {
		t.Errorf("only %.0f%% of applied fixes satisfy the pattern afterwards", 100*rate)
	}
}

func parseByLang(src string, lang ast.Language) (*ast.Node, error) {
	if lang == ast.Python {
		return pylang.Parse(src)
	}
	return javalang.Parse(src)
}

func TestReplaceIdentifier(t *testing.T) {
	tests := []struct {
		line, from, to, want string
		ok                   bool
	}{
		{"self.assertTrue(x, 1)", "assertTrue", "assertEqual", "self.assertEqual(x, 1)", true},
		{"x = por + 'por'", "por", "port", "x = port + 'por'", true}, // string untouched
		{"portable = por", "por", "port", "portable = port", true},   // whole word only
		{"nothing here", "missing", "x", "nothing here", false},
		{`s = "assertTrue"`, "assertTrue", "assertEqual", `s = "assertTrue"`, false},
	}
	for _, tt := range tests {
		got, ok := replaceIdentifier(tt.line, tt.from, tt.to)
		if got != tt.want || ok != tt.ok {
			t.Errorf("replaceIdentifier(%q, %q, %q) = %q,%v; want %q,%v",
				tt.line, tt.from, tt.to, got, ok, tt.want, tt.ok)
		}
	}
}

func TestFindIdentifierWithSubtoken(t *testing.T) {
	id, ok := findIdentifierWithSubtoken("self.assertTrue(picture.rotate_angle, 90)", "True")
	if !ok || id != "assertTrue" {
		t.Errorf("got %q,%v", id, ok)
	}
	// Ambiguous: two identifiers carry the subtoken.
	if _, ok := findIdentifierWithSubtoken("port = port_count", "port"); ok {
		t.Error("ambiguous subtoken should not resolve")
	}
	if _, ok := findIdentifierWithSubtoken("x = 1", "missing"); ok {
		t.Error("absent subtoken should not resolve")
	}
}

func TestSuggestFixedName(t *testing.T) {
	v := &Violation{
		Stmt: &ProcStmt{SourceLine: "self.assertTrue(x, 90)", Line: 1, Path: "f.py"},
	}
	v.Detail.Original = "True"
	v.Detail.Suggested = "Equal"
	from, to, ok := v.SuggestFixedName()
	if !ok || from != "assertTrue" || to != "assertEqual" {
		t.Errorf("SuggestFixedName = %q -> %q, %v", from, to, ok)
	}
	if !strings.Contains(FixReport(v), "assertEqual") {
		t.Error("FixReport missing rewrite")
	}
}

func TestFixReportFallback(t *testing.T) {
	v := &Violation{
		Stmt: &ProcStmt{SourceLine: "x = 1", Line: 3, Path: "f.py"},
	}
	v.Detail.Original = "missing"
	v.Detail.Suggested = "other"
	r := FixReport(v)
	if !strings.Contains(r, "manually") {
		t.Errorf("fallback report = %q", r)
	}
}

// A //line directive renames positions for compiler messages, but
// reports and fixes address the submitted file itself: statement lines
// and source lines must be the file's own, and ApplyFix must rewrite the
// flagged line.
func TestGoLineDirectiveKeepsFileLines(t *testing.T) {
	src := `package p

//line gen.y:500
func f(limit int) int {
	maxCount := limit
	return maxCount
}
`
	root, err := ParseSource(ast.Go, src)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(DefaultConfig(ast.Go))
	var assign *ProcStmt
	for _, ps := range sys.ProcessFile(&InputFile{Path: "gen.go", Source: src, Root: root}) {
		if ps.Line > 7 {
			t.Errorf("statement at line %d of a 7-line file (%q)", ps.Line, ps.SourceLine)
		}
		if ps.Line == 5 {
			assign = ps
		}
	}
	if assign == nil || assign.SourceLine != "maxCount := limit" {
		t.Fatalf("line 5 statement = %+v, want source line %q", assign, "maxCount := limit")
	}
	v := &Violation{Stmt: assign}
	v.Detail.Original, v.Detail.Suggested = "Count", "Total"
	fixed, ok := ApplyFix(src, v)
	if !ok {
		t.Fatal("ApplyFix failed")
	}
	if want := strings.Replace(src, "maxCount := limit", "maxTotal := limit", 1); fixed != want {
		t.Errorf("ApplyFix rewrote the wrong line:\n%s", fixed)
	}
}
