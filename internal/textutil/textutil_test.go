package textutil

import (
	"testing"
	"testing/quick"
)

func TestEditDistance(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"True", "Equal", 4},
		{"or", "of", 1},
		{"publick", "public", 1},
		{"por", "port", 1},
		{"args", "kwargs", 2},
		{"same", "same", 0},
		{"N", "np", 2},
	}
	for _, tt := range tests {
		if got := EditDistance(tt.a, tt.b); got != tt.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestEditDistanceProperties(t *testing.T) {
	// Symmetry.
	sym := func(a, b string) bool {
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(sym, nil); err != nil {
		t.Error("symmetry:", err)
	}
	// Identity of indiscernibles.
	ident := func(a string) bool { return EditDistance(a, a) == 0 }
	if err := quick.Check(ident, nil); err != nil {
		t.Error("identity:", err)
	}
	// Triangle inequality.
	tri := func(a, b, c string) bool {
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(tri, &quick.Config{MaxCount: 50}); err != nil {
		t.Error("triangle:", err)
	}
	// Bounded by max length.
	bound := func(a, b string) bool {
		d := EditDistance(a, b)
		la, lb := len([]rune(a)), len([]rune(b))
		hi := la
		if lb > hi {
			hi = lb
		}
		lo := la - lb
		if lo < 0 {
			lo = -lo
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(bound, nil); err != nil {
		t.Error("bound:", err)
	}
}
