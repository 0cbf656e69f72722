package subtoken

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestSplit(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"self", []string{"self"}},
		{"assertTrue", []string{"assert", "True"}},
		{"assertEqual", []string{"assert", "Equal"}},
		{"rotate_angle", []string{"rotate", "angle"}},
		{"snake_case_name", []string{"snake", "case", "name"}},
		{"camelCaseName", []string{"camel", "Case", "Name"}},
		{"PascalCase", []string{"Pascal", "Case"}},
		{"HTTPServer", []string{"HTTP", "Server"}},
		{"parseURL", []string{"parse", "URL"}},
		{"utf8", []string{"utf", "8"}},
		{"base64Encode", []string{"base", "64", "Encode"}},
		{"SCREAMING_SNAKE", []string{"SCREAMING", "SNAKE"}},
		{"__dunder__", []string{"dunder"}},
		{"_private", []string{"private"}},
		{"a", []string{"a"}},
		{"A", []string{"A"}},
		{"x2", []string{"x", "2"}},
		{"$jquery", []string{"jquery"}},
		{"num_or_process", []string{"num", "or", "process"}},
		{"publickKey", []string{"publick", "Key"}},
		{"progDialog", []string{"prog", "Dialog"}},
		{"getStackTrace", []string{"get", "Stack", "Trace"}},
		{"___", nil},
		{"ABClass", []string{"AB", "Class"}},
	}
	for _, tt := range tests {
		if got := Split(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Split(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestCount(t *testing.T) {
	if got := Count("assertTrue"); got != 2 {
		t.Errorf("Count(assertTrue) = %d, want 2", got)
	}
	if got := Count("self"); got != 1 {
		t.Errorf("Count(self) = %d, want 1", got)
	}
	if got := Count(""); got != 0 {
		t.Errorf("Count(\"\") = %d, want 0", got)
	}
}

func TestJoin(t *testing.T) {
	tests := []struct {
		orig string
		subs []string
		want string
	}{
		{"assertTrue", []string{"assert", "Equal"}, "assertEqual"},
		{"rotate_angle", []string{"rotate", "speed"}, "rotate_speed"},
		{"num_or_process", []string{"num", "of", "process"}, "num_of_process"},
		{"progDialog", []string{"progress", "Dialog"}, "progressDialog"},
		{"x", []string{"y"}, "y"},
		{"x", nil, ""},
	}
	for _, tt := range tests {
		if got := Join(tt.orig, tt.subs); got != tt.want {
			t.Errorf("Join(%q, %v) = %q, want %q", tt.orig, tt.subs, got, tt.want)
		}
	}
}

// Property: splitting never produces empty subtokens and every subtoken's
// runes appear in the input in order.
func TestSplitProperties(t *testing.T) {
	f := func(s string) bool {
		subs := Split(s)
		for _, sub := range subs {
			if sub == "" {
				return false
			}
		}
		// Concatenated subtokens must be a subsequence of the input.
		joined := ""
		for _, sub := range subs {
			joined += sub
		}
		ri := []rune(s)
		rj := []rune(joined)
		i := 0
		for _, r := range rj {
			found := false
			for i < len(ri) {
				if ri[i] == r {
					found = true
					i++
					break
				}
				i++
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: splitting a snake_case join of clean lowercase words recovers
// the words.
func TestSplitJoinRoundTrip(t *testing.T) {
	words := [][]string{
		{"alpha"}, {"alpha", "beta"}, {"read", "file", "lines"},
		{"x", "y", "z"}, {"value"},
	}
	for _, ws := range words {
		snake := Join("has_underscore", ws)
		if got := Split(snake); !reflect.DeepEqual(got, ws) {
			t.Errorf("Split(Join snake %v) = %v", ws, got)
		}
	}
}

// splitRunes is the rune-buffer reference Split was written from: it
// builds each subtoken rune by rune instead of slicing the input.
func splitRunes(name string) []string {
	if name == "" {
		return nil
	}
	runes := []rune(name)
	var out []string
	var cur []rune
	flush := func() {
		if len(cur) > 0 {
			out = append(out, string(cur))
			cur = cur[:0]
		}
	}
	for _, r := range runes {
		switch {
		case !unicode.IsLetter(r) && !unicode.IsDigit(r):
			flush()
		case len(cur) == 0:
			cur = append(cur, r)
		default:
			prev := cur[len(cur)-1]
			switch {
			case unicode.IsDigit(r) != unicode.IsDigit(prev):
				flush()
				cur = append(cur, r)
			case unicode.IsUpper(r) && unicode.IsLower(prev):
				flush()
				cur = append(cur, r)
			case unicode.IsLower(r) && unicode.IsUpper(prev) && len(cur) > 1:
				last := cur[len(cur)-1]
				cur = cur[:len(cur)-1]
				flush()
				cur = append(cur, last, r)
			default:
				cur = append(cur, r)
			}
		}
	}
	flush()
	return out
}

// Property: Split agrees with the rune-buffer reference, on arbitrary
// strings and on identifiers drawn from an alphabet dense in case, digit,
// separator, non-ASCII and invalid UTF-8 transitions.
func TestSplitMatchesRuneReference(t *testing.T) {
	agree := func(s string) bool {
		got, want := Split(s), splitRunes(s)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(agree, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	alphabet := []string{"a", "b", "A", "B", "1", "2", "_", "$", "é", "É", "ß", "\xff", "٣", "ǅ"}
	fromAlphabet := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(alphabet[int(p)%len(alphabet)])
		}
		return agree(b.String())
	}
	if err := quick.Check(fromAlphabet, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
