package udiff

import (
	"fmt"
	"strings"
	"testing"
)

func TestApplySimpleEdit(t *testing.T) {
	src := "a = 1\nb = 2\nc = 3\n"
	patch := "--- a/f.py\n+++ b/f.py\n@@ -1,3 +1,3 @@\n a = 1\n-b = 2\n+b = 20\n c = 3\n"
	got, err := Apply(src, patch)
	if err != nil {
		t.Fatal(err)
	}
	if want := "a = 1\nb = 20\nc = 3\n"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestApplyAppend(t *testing.T) {
	src := "a = 1\n"
	patch := "@@ -1,1 +1,2 @@\n a = 1\n+b = 2\n"
	got, err := Apply(src, patch)
	if err != nil {
		t.Fatal(err)
	}
	if want := "a = 1\nb = 2\n"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestApplyToEmpty(t *testing.T) {
	got, err := Apply("", "@@ -0,0 +1,2 @@\n+a = 1\n+b = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := "a = 1\nb = 2\n"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestApplyMultiHunk(t *testing.T) {
	src := "l1\nl2\nl3\nl4\nl5\nl6\nl7\nl8\n"
	patch := strings.Join([]string{
		"@@ -1,2 +1,2 @@",
		" l1",
		"-l2",
		"+L2",
		"@@ -7,2 +7,2 @@",
		" l7",
		"-l8",
		"+L8",
		"",
	}, "\n")
	got, err := Apply(src, patch)
	if err != nil {
		t.Fatal(err)
	}
	if want := "l1\nL2\nl3\nl4\nl5\nl6\nl7\nL8\n"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestApplyDelete(t *testing.T) {
	src := "a\nb\nc\n"
	got, err := Apply(src, "@@ -1,3 +1,2 @@\n a\n-b\n c\n")
	if err != nil {
		t.Fatal(err)
	}
	if want := "a\nc\n"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestApplyNoNewlineMarker(t *testing.T) {
	src := "a\n"
	got, err := Apply(src, "@@ -1,1 +1,1 @@\n-a\n+b\n\\ No newline at end of file\n")
	if err != nil {
		t.Fatal(err)
	}
	if got != "b" {
		t.Fatalf("got %q want %q", got, "b")
	}
}

func TestApplyStrictAccounting(t *testing.T) {
	cases := []struct {
		name, src, patch string
		ok               bool
		want             string
	}{
		// Header/body count disagreements: never partially applied.
		{"body longer: extra context", "a\nb\n", "@@ -1,1 +1,1 @@\n a\n b\n", false, ""},
		{"body longer: extra addition", "a\n", "@@ -1,1 +1,1 @@\n a\n+b\n", false, ""},
		{"body longer: extra deletion", "a\nb\n", "@@ -1,1 +1,1 @@\n-a\n-b\n+c\n", false, ""},
		{"body shorter: patch ends", "a\nb\n", "@@ -1,2 +1,2 @@\n a\n", false, ""},
		{"body shorter: next hunk", "a\nb\nc\n", "@@ -1,2 +1,2 @@\n a\n@@ -3,1 +3,1 @@\n-c\n+C\n", false, ""},
		{"body shorter: junk line", "a\nb\n", "@@ -1,2 +1,2 @@\n a\ndiff --git a/x b/x\n", false, ""},
		{"negative count", "a\n", "@@ -1,-1 +1,1 @@\n-a\n+b\n", false, ""},
		{"counts exactly consumed", "a\nb\nc\n", "@@ -1,3 +1,3 @@\n a\n-b\n+B\n c\n", true, "a\nB\nc\n"},

		// "\ No newline at end of file" placement rules.
		{"marker directly after header", "a", "@@ -1,1 +1,1 @@\n\\ No newline at end of file\n-a\n+b\n", false, ""},
		{"marker on mid-hunk context", "a\nb", "@@ -1,2 +1,2 @@\n a\n\\ No newline at end of file\n-b\n+c\n", false, ""},
		{"marker on context but source has newline", "a\n", "@@ -1,1 +1,1 @@\n a\n\\ No newline at end of file\n", false, ""},
		{"marker on deletion but source has newline", "a\n", "@@ -1,1 +1,1 @@\n-a\n\\ No newline at end of file\n+b\n", false, ""},
		{"marker on mid-hunk deletion", "a\nb\n", "@@ -1,2 +1,1 @@\n-a\n\\ No newline at end of file\n b\n", false, ""},
		{"doubled marker", "a", "@@ -1,1 +1,1 @@\n-a\n\\ No newline at end of file\n\\ No newline at end of file\n+b\n", false, ""},
		{"final context marker ok", "a\nb", "@@ -1,2 +1,2 @@\n a\n-b\n+B\n\\ No newline at end of file\n", true, "a\nB"},
		{"gain trailing newline", "a", "@@ -1,1 +1,2 @@\n-a\n\\ No newline at end of file\n+a\n+b\n", true, "a\nb\n"},
		{"delete unterminated last line", "a\nb", "@@ -1,2 +1,1 @@\n a\n-b\n\\ No newline at end of file\n", true, "a\n"},
		{"edit above unterminated tail keeps shape", "a\nb", "@@ -1,1 +1,1 @@\n-a\n+A\n", true, "A\nb"},
		{"delete only line", "a\n", "@@ -1,1 +0,0 @@\n-a\n", true, ""},

		// CRLF sources: uniform CRLF normalized for matching, restored
		// on output; mixed endings must match byte-for-byte.
		{"crlf source, lf patch", "a\r\nb\r\n", "@@ -1,2 +1,2 @@\n a\n-b\n+B\n", true, "a\r\nB\r\n"},
		{"crlf source, crlf patch", "a\r\nb\r\n", "@@ -1,2 +1,2 @@\r\n a\r\n-b\r\n+B\r\n", true, "a\r\nB\r\n"},
		{"crlf source, added lines gain crlf", "a\r\n", "@@ -1,1 +1,2 @@\n a\n+b\n", true, "a\r\nb\r\n"},
		{"mixed endings rejected on mismatch", "a\r\nb\n", "@@ -1,2 +1,2 @@\n a\n-b\n+B\n", false, ""},
	}
	for _, tc := range cases {
		got, err := Apply(tc.src, tc.patch)
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted, produced %q", tc.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: got %q want %q", tc.name, got, tc.want)
		}
	}
}

func TestApplyRejectsMismatch(t *testing.T) {
	cases := []struct{ name, src, patch string }{
		{"context mismatch", "a\nb\n", "@@ -1,2 +1,2 @@\n x\n-b\n+c\n"},
		{"deletion mismatch", "a\nb\n", "@@ -1,2 +1,2 @@\n a\n-x\n+c\n"},
		{"beyond end", "a\n", "@@ -5,1 +5,1 @@\n-z\n+y\n"},
		{"no hunks", "a\n", "just some text\n"},
		{"bad header", "a\n", "@@ nonsense @@\n a\n"},
		{"out of order", "a\nb\nc\n", "@@ -3,1 +3,1 @@\n-c\n+C\n@@ -1,1 +1,1 @@\n-a\n+A\n"},
	}
	for _, tc := range cases {
		if got, err := Apply(tc.src, tc.patch); err == nil {
			t.Errorf("%s: accepted, produced %q", tc.name, got)
		}
	}
}

// wholeFileHunk is a naive diff writer: one hunk that deletes every line
// of before and adds every line of after, with "\ No newline at end of
// file" markers where either side lacks a final newline.
func wholeFileHunk(before, after string) string {
	side := func(text, sign string) (body []string, n int) {
		if text == "" {
			return nil, 0
		}
		lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
		for _, l := range lines {
			body = append(body, sign+l)
		}
		if !strings.HasSuffix(text, "\n") {
			body = append(body, `\ No newline at end of file`)
		}
		return body, len(lines)
	}
	del, nb := side(before, "-")
	add, na := side(after, "+")
	start := func(n int) int { return min(n, 1) }
	header := fmt.Sprintf("@@ -%d,%d +%d,%d @@", start(nb), nb, start(na), na)
	return strings.Join(append(append([]string{"--- a/f", "+++ b/f", header}, del...), add...), "\n") + "\n"
}

// FuzzApplyUnifiedDiff: Apply never panics on arbitrary (src, patch), and
// read as (before, after) without carriage returns, a whole-file hunk
// from the naive writer applies back to exactly after.
func FuzzApplyUnifiedDiff(f *testing.F) {
	f.Add("a = 1\nb = 2\nc = 3\n", "--- a/f.py\n+++ b/f.py\n@@ -1,3 +1,3 @@\n a = 1\n-b = 2\n+b = 20\n c = 3\n")
	f.Add("a = 1\n", "@@ -1,1 +1,2 @@\n a = 1\n+b = 2\n")
	f.Add("", "@@ -0,0 +1,2 @@\n+a = 1\n+b = 2\n")
	f.Add("a\n", "@@ -1,1 +1,1 @@\n-a\n+b\n\\ No newline at end of file\n")
	f.Add("a\nb", "@@ -1,2 +1,2 @@\n a\n-b\n+B\n\\ No newline at end of file\n")
	f.Add("a", "@@ -1,1 +1,2 @@\n-a\n\\ No newline at end of file\n+a\n+b\n")
	f.Add("a\r\nb\r\n", "@@ -1,2 +1,2 @@\n a\n-b\n+B\n")
	f.Add("a\nb\nc\n", "@@ -3,1 +3,1 @@\n-c\n+C\n@@ -1,1 +1,1 @@\n-a\n+A\n")
	f.Fuzz(func(t *testing.T, a, b string) {
		Apply(a, b)
		if strings.Contains(a, "\r") || strings.Contains(b, "\r") {
			return
		}
		patch := wholeFileHunk(a, b)
		got, err := Apply(a, patch)
		if err != nil {
			t.Fatalf("whole-file hunk rejected: %v\npatch:\n%s", err, patch)
		}
		if got != b {
			t.Fatalf("whole-file hunk produced %q, want %q\npatch:\n%s", got, b, patch)
		}
	})
}
