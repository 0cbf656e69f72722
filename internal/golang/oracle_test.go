package golang_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	uast "namer/internal/ast"
	"namer/internal/golang"
	"namer/internal/samples"
)

// pinnedTreeDigest is treeDigest of the GOROOT sample as converted before
// the line lookup and node allocation of the converter were rewritten.
// A change to the converter that moves a node, a value or a line in any
// of the 196 files changes it.
const pinnedTreeDigest = "d4d4d1b17e1418a4ff6b99bb794751795145e4578ac8805b4e192e10ce0852f6"

// treeDigest hashes every file's path and its tree in preorder: each
// node's Kind, Value, Line and number of children, which together fix the
// tree's shape.
func treeDigest(files []samples.File) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	num := func(v int) { h.Write(buf[:binary.PutVarint(buf[:], int64(v))]) }
	str := func(s string) { num(len(s)); h.Write([]byte(s)) }
	for _, f := range files {
		str(f.Path)
		f.Root.Walk(func(n *uast.Node) bool {
			num(int(n.Kind))
			str(n.Value)
			num(n.Line)
			num(len(n.Children))
			return true
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestConvertedTreeDigest pins the converted GOROOT sample. samples.Goroot
// parses through golang.Parse, so this checks the converter on real code
// far beyond what the hand-written sources reach.
func TestConvertedTreeDigest(t *testing.T) {
	s, ok, reason := samples.Goroot()
	if !ok {
		t.Skip(reason)
	}
	if len(s.Files) != 196 {
		t.Fatalf("GOROOT sample parsed %d files, want 196", len(s.Files))
	}
	if got := treeDigest(s.Files); got != pinnedTreeDigest {
		t.Errorf("converted tree digest %s, pinned %s", got, pinnedTreeDigest)
	}
}

// BenchmarkParse times golang.Parse, go/parser plus the conversion to the
// unified AST, over the GOROOT sample; one op parses all 196 files.
func BenchmarkParse(b *testing.B) {
	s, ok, reason := samples.Goroot()
	if !ok {
		b.Skip(reason)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range s.Files {
			if _, err := golang.Parse(f.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
}
