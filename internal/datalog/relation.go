package datalog

import "fmt"

// Relation is one relation's tuples. They live in a flat arena of
// fixed-width rows that starts empty and grows by appending, and are
// deduplicated by an open-addressing hash set of positions verified
// against the arena. Nothing in it holds a pointer per tuple or symbol.
type Relation struct {
	arity int
	n     int
	data  []int32 // tuple p is data[p*arity : (p+1)*arity]
	// slots holds position+1 of a tuple, 0 when empty; its length is a
	// power of two, 1<<(64-shift), at least twice n.
	slots []int32
	shift uint
	index []*colIndex // per column, built on first lookup
}

// colIndex chains the positions holding each symbol in one column over the
// dense symbols: head[v] is the newest such position + 1 (0 when none),
// and next[p] is position+1 of the one inserted before p.
type colIndex struct {
	head []int32
	next []int32
}

// first returns position+1 of the newest tuple holding v, 0 when none.
func (ix *colIndex) first(v int32) int32 {
	if v < 0 || int(v) >= len(ix.head) {
		return 0
	}
	return ix.head[v]
}

func (ix *colIndex) add(v int32, pos int) {
	if int(v) >= len(ix.head) {
		ix.head = append(ix.head, make([]int32, int(v)+1-len(ix.head))...)
	}
	ix.next = append(ix.next, ix.head[v])
	ix.head[v] = int32(pos + 1)
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

func (r *Relation) tuple(pos int) []int32 {
	return r.data[pos*r.arity : (pos+1)*r.arity : (pos+1)*r.arity]
}

func hashTuple(t []int32) uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = (h ^ uint64(uint32(v))) * 0x9E3779B97F4A7C15
	}
	return h
}

// find returns the slot holding t, or the empty slot where t belongs.
func (r *Relation) find(t []int32) (slot int, found bool) {
	mask := len(r.slots) - 1
	for i := int(hashTuple(t) >> r.shift); ; i = (i + 1) & mask {
		p := r.slots[i]
		if p == 0 {
			return i, false
		}
		old := r.tuple(int(p - 1))
		same := true
		for j, v := range t {
			if old[j] != v {
				same = false
				break
			}
		}
		if same {
			return i, true
		}
	}
}

func (r *Relation) contains(t []int32) bool {
	if r.n == 0 {
		return false
	}
	_, found := r.find(t)
	return found
}

// Insert adds a tuple if it is new, copying it, and reports whether it
// was added.
func (r *Relation) Insert(t ...int32) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("datalog: tuple of arity %d inserted into a relation of arity %d", len(t), r.arity))
	}
	if 2*(r.n+1) > len(r.slots) {
		r.rehash()
	}
	slot, found := r.find(t)
	if found {
		return false
	}
	r.slots[slot] = int32(r.n + 1)
	r.data = append(r.data, t...)
	for col, ix := range r.index {
		if ix != nil {
			ix.add(t[col], r.n)
		}
	}
	r.n++
	return true
}

// rehash doubles the hash set (to 8 slots at first).
func (r *Relation) rehash() {
	size, shift := 8, uint(61)
	if len(r.slots) > 0 {
		size, shift = 2*len(r.slots), r.shift-1
	}
	r.slots, r.shift = make([]int32, size), shift
	for pos := 0; pos < r.n; pos++ {
		slot, _ := r.find(r.tuple(pos))
		r.slots[slot] = int32(pos + 1)
	}
}

// column returns the index on col, building it on first use.
func (r *Relation) column(col int) *colIndex {
	if r.index == nil {
		r.index = make([]*colIndex, r.arity)
	}
	if r.index[col] == nil {
		ix := &colIndex{next: make([]int32, 0, r.n)}
		for pos := 0; pos < r.n; pos++ {
			ix.add(r.data[pos*r.arity+col], pos)
		}
		r.index[col] = ix
	}
	return r.index[col]
}

// Match calls fn with each tuple whose column col holds v, newest first,
// until fn returns false. fn must not modify the tuple or the relation.
func (r *Relation) Match(col int, v int32, fn func(t []int32) bool) {
	ix := r.column(col)
	for p := ix.first(v); p != 0; p = ix.next[p-1] {
		if !fn(r.tuple(int(p - 1))) {
			return
		}
	}
}

// symtab interns the constants of a program's text as dense symbols.
type symtab struct {
	byName map[string]int32
	names  []string
}

func newSymtab() *symtab {
	return &symtab{byName: make(map[string]int32)}
}

// intern returns the symbol for s, allocating one if needed.
func (t *symtab) intern(s string) int32 {
	if id, ok := t.byName[s]; ok {
		return id
	}
	id := int32(len(t.names))
	t.byName[s] = id
	t.names = append(t.names, s)
	return id
}
