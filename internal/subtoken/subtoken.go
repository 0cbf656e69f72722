// Package subtoken splits identifier names into subtokens following the
// standard naming conventions the paper relies on (camelCase, PascalCase,
// snake_case, SCREAMING_SNAKE, digit runs, acronym runs). Splitting is what
// lets Namer detect issues at subtoken granularity: assertTrue becomes
// [assert True], rotate_angle becomes [rotate angle].
package subtoken

import "unicode"

// Split breaks an identifier into subtokens. The original casing of each
// subtoken is preserved (assertTrue -> ["assert", "True"]) because name
// patterns reason over the literal subtokens.
//
// Rules, applied in order while scanning:
//   - '_', '$' and other non-alphanumeric runes are separators and are
//     dropped;
//   - a lower-to-upper transition starts a new subtoken (camelCase);
//   - an upper-upper-lower transition splits before the last upper rune so
//     acronyms stay whole (HTTPServer -> ["HTTP", "Server"]);
//   - letter<->digit transitions start a new subtoken (utf8 -> ["utf","8"]).
//
// The empty string yields nil. An identifier with no splittable structure
// yields a single subtoken equal to itself. Subtokens are substrings of
// name, so the only allocation is the returned slice.
func Split(name string) []string { return AppendSplit(nil, name) }

// AppendSplit appends the subtokens of name, as Split returns them, to
// out and returns the extended slice; a caller that reuses out splits
// without allocating.
func AppendSplit(out []string, name string) []string {
	if name == "" {
		return out
	}
	start := -1 // byte offset where the current subtoken starts; -1: none
	runes := 0  // runes in the current subtoken
	var prev rune
	prevAt := 0 // byte offset of prev, the current subtoken's last rune
	for i, r := range name {
		switch {
		case !unicode.IsLetter(r) && !unicode.IsDigit(r):
			if start >= 0 {
				out = append(out, name[start:i])
				start = -1
			}
		case start < 0:
			start, runes = i, 1
		case unicode.IsDigit(r) != unicode.IsDigit(prev),
			unicode.IsUpper(r) && unicode.IsLower(prev):
			out = append(out, name[start:i])
			start, runes = i, 1
		case unicode.IsLower(r) && unicode.IsUpper(prev) && runes > 1:
			// Acronym followed by a word: split before the last upper.
			out = append(out, name[start:prevAt])
			start, runes = prevAt, 2
		default:
			runes++
		}
		prev, prevAt = r, i
	}
	if start >= 0 {
		out = append(out, name[start:])
	}
	return out
}

// Count returns the number of subtokens Split would produce; it is the k of
// the NumST(k) nodes in the AST+ transformation.
func Count(name string) int { return len(Split(name)) }

// Join reassembles subtokens using the convention detected from the
// original identifier: snake_case if the original contained an underscore,
// otherwise camelCase with the first subtoken's casing preserved. It is
// used to render suggested fixes (replace one subtoken, re-join).
func Join(original string, subtokens []string) string {
	if len(subtokens) == 0 {
		return ""
	}
	snake := false
	for _, r := range original {
		if r == '_' {
			snake = true
			break
		}
	}
	if snake {
		s := subtokens[0]
		for _, t := range subtokens[1:] {
			s += "_" + t
		}
		return s
	}
	s := subtokens[0]
	for _, t := range subtokens[1:] {
		s += capitalize(t)
	}
	return s
}

func capitalize(s string) string {
	r := []rune(s)
	if len(r) == 0 {
		return s
	}
	r[0] = unicode.ToUpper(r[0])
	return string(r)
}
