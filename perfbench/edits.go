package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"namer/internal/ast"
	"namer/internal/core"
	"namer/internal/session"
)

var identRe = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

var keywordList = map[ast.Language]string{
	ast.Go: "break case chan const continue default defer else fallthrough for func go goto if " +
		"import interface map package range return select struct switch type var",
	ast.Python: "False None True and as assert async await break class continue def del elif else " +
		"except finally for from global if import in is lambda nonlocal not or pass raise return " +
		"try while with yield self",
}

// editor generates seeded, syntax-preserving single-line edits of one
// language's source files. Every generated content is parsed before it is
// used, so no request fails because the benchmark broke the syntax.
type editor struct {
	lang     ast.Language
	keywords map[string]bool
}

func newEditor(lang ast.Language) *editor {
	e := &editor{lang: lang, keywords: map[string]bool{}}
	for _, k := range strings.Fields(keywordList[lang]) {
		e.keywords[k] = true
	}
	return e
}

func (e *editor) parses(src string) bool {
	_, err := core.ParseSource(e.lang, src)
	return err == nil
}

// occurrence is one identifier token on one line.
type occurrence struct {
	line, start, end int
}

// identifiers lists the renameable identifier occurrences of src (on
// ASCII lines, not keywords, not part of a number or an escape) and the
// distinct names among them.
func (e *editor) identifiers(lines []string) ([]occurrence, []string) {
	var occs []occurrence
	seen := map[string]bool{}
	var names []string
	for i, l := range lines {
		if !isASCII(l) {
			continue
		}
		for _, m := range identRe.FindAllStringIndex(l, -1) {
			if m[0] > 0 && strings.ContainsRune("0123456789\\'.", rune(l[m[0]-1])) {
				continue
			}
			w := l[m[0]:m[1]]
			if e.keywords[w] || len(w) < 2 {
				continue
			}
			occs = append(occs, occurrence{i, m[0], m[1]})
			if !seen[w] {
				seen[w] = true
				names = append(names, w)
			}
		}
	}
	return occs, names
}

// rename returns src with one identifier occurrence replaced by another
// identifier of the same file: the shape of a naming bug.
func (e *editor) rename(rng *rand.Rand, src string) (string, session.Edit, bool) {
	lines := strings.Split(src, "\n")
	occs, names := e.identifiers(lines)
	if len(occs) == 0 || len(names) < 2 {
		return "", session.Edit{}, false
	}
	for try := 0; try < 16; try++ {
		o := occs[rng.Intn(len(occs))]
		name := names[rng.Intn(len(names))]
		if name == lines[o.line][o.start:o.end] {
			continue
		}
		ed := session.Edit{Range: &session.Range{
			Start: session.Pos{Line: o.line, Character: o.start},
			End:   session.Pos{Line: o.line, Character: o.end},
		}, Text: name}
		out := applyEdit(lines, ed)
		if e.parses(out) {
			return out, ed, true
		}
	}
	return "", session.Edit{}, false
}

// insertLine duplicates one simple statement line right below itself.
func (e *editor) insertLine(rng *rand.Rand, src string) (string, session.Edit, int, bool) {
	lines := strings.Split(src, "\n")
	for try := 0; try < 16; try++ {
		i := rng.Intn(len(lines) - 1)
		l := lines[i]
		t := strings.TrimSpace(l)
		if t == "" || !isASCII(l) || strings.ContainsAny(t[len(t)-1:], "{([,:\\+-*/&|=.") ||
			strings.ContainsAny(t[:1], "})]#/@\"'") {
			continue
		}
		ed := session.Edit{Range: &session.Range{
			Start: session.Pos{Line: i + 1},
			End:   session.Pos{Line: i + 1},
		}, Text: l + "\n"}
		out := applyEdit(lines, ed)
		if e.parses(out) {
			return out, ed, i + 1, true
		}
	}
	return "", session.Edit{}, 0, false
}

// deleteLine removes line i.
func deleteLine(src string, i int) (string, session.Edit) {
	ed := session.Edit{Range: &session.Range{
		Start: session.Pos{Line: i},
		End:   session.Pos{Line: i + 1},
	}}
	return applyEdit(strings.Split(src, "\n"), ed), ed
}

// applyEdit is the benchmark's own application of an LSP range edit
// (byte-offset characters), against which session snapshots are checked.
func applyEdit(lines []string, ed session.Edit) string {
	if ed.Range == nil {
		return ed.Text
	}
	offset := func(p session.Pos) int {
		off := 0
		for i := 0; i < p.Line; i++ {
			off += len(lines[i]) + 1
		}
		return off + p.Character
	}
	src := strings.Join(lines, "\n")
	return src[:offset(ed.Range.Start)] + ed.Text + src[offset(ed.Range.End):]
}

// unifiedDiff renders a one-line replacement as the patch git would emit
// without context lines.
func unifiedDiff(path, before, after string) (string, bool) {
	bl, al := strings.Split(before, "\n"), strings.Split(after, "\n")
	if len(bl) != len(al) {
		return "", false
	}
	for i := range bl {
		if bl[i] != al[i] {
			if i == len(bl)-1 {
				return "", false
			}
			return fmt.Sprintf("--- a/%s\n+++ b/%s\n@@ -%d,1 +%d,1 @@\n-%s\n+%s\n",
				path, path, i+1, i+1, bl[i], al[i]), true
		}
	}
	return "", false
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
