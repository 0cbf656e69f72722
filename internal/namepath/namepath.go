// Package namepath implements the name path abstraction of Definition 3.2:
// a path from the root of a transformed statement AST (AST+) to a leaf
// subtoken, recorded as a list of (node value, child index) pairs plus the
// end subtoken. Name paths are the items over which name patterns are
// defined and mined.
package namepath

import (
	"strconv"
	"strings"

	"namer/internal/ast"
)

// Epsilon is the symbolic end node ϵ of Definition 3.2. A Path with
// End == Epsilon is a symbolic name path: its end matches any subtoken.
const Epsilon = ""

// Elem is one step of a name path prefix: the value of a non-terminal node
// and the index of the next node in its children list.
type Elem struct {
	Value string
	Index int
}

// pathMemo caches the canonical encodings of a path. It is written once at
// construction time and read-only afterwards, so memoized paths can be
// shared freely across goroutines.
type pathMemo struct {
	prefixKey string
	key       string
}

// Path is a name path ⟨S, n⟩: Prefix is S, End is n (Epsilon when
// symbolic).
type Path struct {
	Prefix []Elem
	End    string

	// memo holds the precomputed PrefixKey/Key. Paths built by Extract,
	// ParsePath, and WithEnd carry it; zero-value paths compute keys on
	// demand.
	memo *pathMemo
}

// Same implements the ~ operator of Definition 3.4: true iff the prefixes
// are equal element-wise.
func (p Path) Same(q Path) bool {
	if len(p.Prefix) != len(q.Prefix) {
		return false
	}
	for i := range p.Prefix {
		if p.Prefix[i] != q.Prefix[i] {
			return false
		}
	}
	return true
}

// Eq implements the = operator of Definition 3.4: prefixes equal, and the
// ends equal or either end symbolic.
func (p Path) Eq(q Path) bool {
	if !p.Same(q) {
		return false
	}
	return p.End == Epsilon || q.End == Epsilon || p.End == q.End
}

// Symbolic reports whether the end node is ϵ.
func (p Path) Symbolic() bool { return p.End == Epsilon }

// WithEnd returns a copy of p with the given end node, preserving (and
// adjusting) the key memo when present.
func (p Path) WithEnd(end string) Path {
	q := Path{Prefix: p.Prefix, End: end}
	if p.memo != nil {
		q.memo = &pathMemo{prefixKey: p.memo.prefixKey, key: fullKey(p.memo.prefixKey, end)}
	}
	return q
}

// Memoized returns p with its canonical encodings precomputed, so that
// subsequent PrefixKey/Key calls are constant-time map-key reads. It is
// idempotent and the memo is immutable, making memoized paths safe to
// share across goroutines.
func (p Path) Memoized() Path {
	if p.memo == nil {
		pk := computePrefixKey(p.Prefix)
		p.memo = &pathMemo{prefixKey: pk, key: fullKey(pk, p.End)}
	}
	return p
}

func computePrefixKey(prefix []Elem) string {
	var b strings.Builder
	for i, e := range prefix {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(e.Value)
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(e.Index))
	}
	return b.String()
}

func fullKey(prefixKey, end string) string {
	if end == Epsilon {
		return prefixKey + " ε"
	}
	return prefixKey + " " + end
}

// fullKeyBytes is fullKey over a prefix encoding held in buf; it may
// append to buf.
func fullKeyBytes(buf []byte, end string) string {
	if end == Epsilon {
		return string(append(buf, " ε"...))
	}
	return string(append(append(buf, ' '), end...))
}

// PrefixKey returns a canonical encoding of the prefix, used to group and
// compare paths cheaply.
func (p Path) PrefixKey() string {
	if p.memo != nil {
		return p.memo.prefixKey
	}
	return computePrefixKey(p.Prefix)
}

// Key returns a canonical encoding of the full path (prefix and end). Two
// paths are identical iff their keys are equal.
func (p Path) Key() string {
	if p.memo != nil {
		return p.memo.key
	}
	return fullKey(p.PrefixKey(), p.End)
}

// String renders the path in the paper's notation.
func (p Path) String() string {
	if p.End == Epsilon {
		return p.PrefixKey() + " ϵ"
	}
	return p.PrefixKey() + " " + p.End
}

// Extract walks a transformed statement AST (AST+) top-down and returns
// the concrete name paths to its terminal leaves, in left-to-right order.
// Operator token leaves are skipped: name paths end at code-name subtokens
// and abstracted literals (NUM/STR/BOOL/NULL). At most limit paths are
// returned (the paper keeps the first 10); limit <= 0 means no limit.
//
// A first walk counts the paths and their total prefix length, so the
// paths, their prefixes and their memos each take one allocation per
// call. Each Prefix is a capacity-clipped window of the shared prefix
// slab, so appending to one never writes into another. Each path's key
// is one string, and its PrefixKey is a prefix of it.
func Extract(root *ast.Node, limit int) []Path {
	c := extractCounter{limit: limit}
	c.walk(root, 0)
	if c.paths == 0 {
		return nil
	}
	e := extractor{
		limit: c.paths,
		out:   make([]Path, 0, c.paths),
		memos: make([]pathMemo, c.paths),
		slab:  make([]Elem, 0, c.elems),
	}
	var prefix [32]Elem
	var keyBuf [256]byte
	e.walk(root, prefix[:0], keyBuf[:0])
	return e.out
}

// extractCounter is Extract's first walk: the number of paths it will
// emit and the sum of their prefix lengths.
type extractCounter struct {
	limit, paths, elems int
}

func (c *extractCounter) walk(n *ast.Node, depth int) {
	if c.limit > 0 && c.paths >= c.limit {
		return
	}
	if n.IsTerminal() {
		if n.Kind == ast.Subtoken {
			c.paths++
			c.elems += depth
		}
		return
	}
	for _, ch := range n.Children {
		c.walk(ch, depth+1)
	}
}

// extractor is Extract's second walk. The prefix of the node being
// visited, and its canonical encoding, are grown alongside the walk in
// scratch buffers that start out on Extract's stack.
type extractor struct {
	limit int
	out   []Path
	memos []pathMemo
	slab  []Elem // the emitted paths' prefixes, back to back
}

func (e *extractor) walk(n *ast.Node, prefix []Elem, keyBuf []byte) {
	if len(e.out) >= e.limit {
		return
	}
	if n.IsTerminal() {
		if n.Kind == ast.Subtoken {
			e.emit(prefix, keyBuf, n.Value)
		}
		return
	}
	for i, c := range n.Children {
		kb := keyBuf
		if len(kb) > 0 {
			kb = append(kb, ' ')
		}
		kb = append(kb, n.Value...)
		kb = append(kb, ' ')
		kb = strconv.AppendInt(kb, int64(i), 10)
		e.walk(c, append(prefix, Elem{Value: n.Value, Index: i}), kb)
	}
}

// emit records the path with the given prefix and its encoding to the
// subtoken end.
func (e *extractor) emit(prefix []Elem, prefixKey []byte, end string) {
	lo := len(e.slab)
	e.slab = append(e.slab, prefix...)
	hi := len(e.slab)
	key := fullKeyBytes(prefixKey, end)
	m := &e.memos[len(e.out)]
	*m = pathMemo{prefixKey: key[:len(prefixKey)], key: key}
	e.out = append(e.out, Path{Prefix: e.slab[lo:hi:hi], End: end, memo: m})
}

// Dedup removes duplicate paths (by Key), preserving order. Statement path
// sets are required to have pairwise-distinct prefixes; Dedup enforces the
// weaker full-path uniqueness used when updating the FP tree.
func Dedup(paths []Path) []Path {
	seen := make(map[string]bool, len(paths))
	out := paths[:0]
	for _, p := range paths {
		k := p.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, p)
	}
	return out
}

// ParsePath parses the paper's textual notation back into a Path: tokens
// alternate value and index, ending with the end node ("ϵ" for symbolic).
// It is the inverse of String for values without spaces and is used by
// tests and tools.
func ParsePath(s string) (Path, bool) {
	fields := strings.Fields(s)
	if len(fields) == 0 || len(fields)%2 == 0 {
		return Path{}, false
	}
	var p Path
	for i := 0; i+1 < len(fields); i += 2 {
		idx, err := strconv.Atoi(fields[i+1])
		if err != nil {
			return Path{}, false
		}
		p.Prefix = append(p.Prefix, Elem{Value: fields[i], Index: idx})
	}
	end := fields[len(fields)-1]
	if end == "ϵ" || end == "ε" {
		end = Epsilon
	}
	p.End = end
	return p.Memoized(), true
}

// Interner assigns dense integer ids to paths so the FP-tree can store
// items as ints.
type Interner struct {
	byKey map[string]int
	paths []Path
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{byKey: make(map[string]int)}
}

// Intern returns the id for p, allocating one if needed.
func (in *Interner) Intern(p Path) int {
	k := p.Key()
	if id, ok := in.byKey[k]; ok {
		return id
	}
	id := len(in.paths)
	in.byKey[k] = id
	in.paths = append(in.paths, p)
	return id
}

// Lookup returns the id for p and whether it is known.
func (in *Interner) Lookup(p Path) (int, bool) {
	id, ok := in.byKey[p.Key()]
	return id, ok
}

// Path returns the path with the given id.
func (in *Interner) Path(id int) Path { return in.paths[id] }

// Len returns the number of interned paths.
func (in *Interner) Len() int { return len(in.paths) }
