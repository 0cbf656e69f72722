package session

import (
	"errors"
	"testing"
)

// naiveOffset walks content byte by byte to the position p, counting
// columns in bytes as editors send them here. It is the reference that
// applyEdit's split-lines arithmetic must agree with.
func naiveOffset(content string, p Pos) (int, bool) {
	line, col := 0, 0
	for i := 0; i <= len(content); i++ {
		if line == p.Line && col == p.Character {
			return i, true
		}
		if i == len(content) {
			break
		}
		if content[i] == '\n' {
			line, col = line+1, 0
		} else {
			col++
		}
	}
	return 0, false
}

// FuzzApplyEdit checks applyEdit against a naive string splice: an
// in-range, non-inverted range yields the spliced content; anything else
// is ErrBadRange; nothing panics. Seeds are the session tests' edits.
func FuzzApplyEdit(f *testing.F) {
	f.Add("a = 1\nb = 2\nc = 3\n", 1, 4, 1, 5, "20")
	f.Add("a = 1\nb = 20\nc = 3\n", 0, 0, 1, 6, "x = 9")
	f.Add("a = 1\n", 0, 0, 0, 1, "b")
	f.Add("a = 1\nb = 2\nc = 3\nd = 4\n", 3, 4, 3, 5, "40")
	f.Add("a = 1\n", 5, 0, 5, 0, "x")
	f.Add("a = 1\n", 0, 99, 0, 99, "x")
	f.Add("a = 1\n", 1, 0, 0, 0, "x")
	f.Add("a = 1\n", -1, 0, 0, 0, "x")
	f.Add("", 0, 0, 0, 0, "upload_cnt = upload_count + 1\n")

	f.Fuzz(func(t *testing.T, content string, sl, sc, el, ec int, text string) {
		e := Edit{Range: &Range{Start: Pos{sl, sc}, End: Pos{el, ec}}, Text: text}
		out, err := applyEdit(content, e)
		so, okS := naiveOffset(content, e.Range.Start)
		eo, okE := naiveOffset(content, e.Range.End)
		if !okS || !okE || eo < so {
			if !errors.Is(err, ErrBadRange) {
				t.Fatalf("range %+v on %q: err = %v, want ErrBadRange", *e.Range, content, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("range %+v on %q: %v", *e.Range, content, err)
		}
		if want := content[:so] + text + content[eo:]; out != want {
			t.Fatalf("range %+v on %q: got %q, want %q", *e.Range, content, out, want)
		}
	})
}
