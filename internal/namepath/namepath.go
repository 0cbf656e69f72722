// Package namepath implements the name path abstraction of Definition 3.2:
// a path from the root of a transformed statement AST (AST+) to a leaf
// subtoken, recorded as a list of (node value, child index) pairs plus the
// end subtoken. Name paths are the items over which name patterns are
// defined and mined.
package namepath

import (
	"strconv"
	"strings"
	"sync"

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
// The paths are laid out as Builder.Paths lays them out.
func Extract(root *ast.Node, limit int) []Path {
	b := extractBuilders.Get().(*Builder)
	defer extractBuilders.Put(b)
	b.Reset(limit)
	b.walk(root)
	return b.Paths()
}

// extractBuilders lets Extract, called once per statement, reuse a
// Builder's scratch across calls as one walk over many statements does.
var extractBuilders = sync.Pool{New: func() any { return new(Builder) }}

func (b *Builder) walk(n *ast.Node) {
	if n.IsTerminal() {
		if n.Kind == ast.Subtoken {
			b.Emit(n.Value)
		}
		return
	}
	for i, c := range n.Children {
		if b.Full() {
			return
		}
		b.Push(n.Value, i)
		b.walk(c)
		b.Pop()
	}
}

// Builder assembles the name paths of one statement while a top-down walk
// over its AST+ (or over a tree the walk rewrites into one as it goes)
// pushes and pops the root-to-node prefix and emits a path at each
// subtoken leaf. It is the one place paths are laid out: Paths returns
// them in an exact-size slice, with their prefixes in one slab, each a
// capacity-clipped window of it so that appending to one never writes
// into another, and all their keys in one string, each PrefixKey a
// prefix of its Key. A Builder reuses its scratch from one statement to
// the next; the zero value is ready for Reset.
type Builder struct {
	limit  int
	prefix []Elem // the root-to-node prefix being walked
	key    []byte // the encoding of prefix
	keyAt  []int  // len(key) before each element of prefix was pushed

	elems []Elem // emitted prefixes, back to back
	keys  []byte // emitted keys, back to back
	out   []emitted
}

// emitted locates one emitted path in the Builder's scratch.
type emitted struct {
	end                       string
	elemLo, elemHi            int
	keyLo, prefixKeyHi, keyHi int
}

// Reset starts a new statement, of which at most limit paths are kept;
// limit <= 0 means no limit.
func (b *Builder) Reset(limit int) {
	b.limit = limit
	b.prefix, b.key, b.keyAt = b.prefix[:0], b.key[:0], b.keyAt[:0]
	b.elems, b.keys, b.out = b.elems[:0], b.keys[:0], b.out[:0]
}

// Push descends from the node with the given value to its child at
// index.
func (b *Builder) Push(value string, index int) {
	b.keyAt = append(b.keyAt, len(b.key))
	if len(b.prefix) > 0 {
		b.key = append(b.key, ' ')
	}
	b.key = append(b.key, value...)
	b.key = append(b.key, ' ')
	b.key = strconv.AppendInt(b.key, int64(index), 10)
	b.prefix = append(b.prefix, Elem{Value: value, Index: index})
}

// Pop undoes the last Push.
func (b *Builder) Pop() {
	last := len(b.prefix) - 1
	b.key = b.key[:b.keyAt[last]]
	b.prefix, b.keyAt = b.prefix[:last], b.keyAt[:last]
}

// Full reports whether the limit has been reached, so that the walk can
// stop.
func (b *Builder) Full() bool { return b.limit > 0 && len(b.out) >= b.limit }

// Emit records the path from the root to a leaf with the given end
// under the current prefix, unless the limit has been reached.
func (b *Builder) Emit(end string) {
	if b.Full() {
		return
	}
	p := emitted{end: end, elemLo: len(b.elems), keyLo: len(b.keys)}
	b.elems = append(b.elems, b.prefix...)
	b.keys = append(b.keys, b.key...)
	p.elemHi, p.prefixKeyHi = len(b.elems), len(b.keys)
	if end == Epsilon {
		b.keys = append(b.keys, " ε"...)
	} else {
		b.keys = append(append(b.keys, ' '), end...)
	}
	p.keyHi = len(b.keys)
	b.out = append(b.out, p)
}

// Paths returns the paths emitted since Reset, memoized, or nil if there
// are none. They share no memory with the Builder.
func (b *Builder) Paths() []Path {
	if len(b.out) == 0 {
		return nil
	}
	paths := make([]Path, len(b.out))
	memos := make([]pathMemo, len(b.out))
	slab := make([]Elem, len(b.elems))
	copy(slab, b.elems)
	keys := string(b.keys)
	for i, p := range b.out {
		memos[i] = pathMemo{prefixKey: keys[p.keyLo:p.prefixKeyHi], key: keys[p.keyLo:p.keyHi]}
		paths[i] = Path{Prefix: slab[p.elemLo:p.elemHi:p.elemHi], End: p.end, memo: &memos[i]}
	}
	return paths
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
