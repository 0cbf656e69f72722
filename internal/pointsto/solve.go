package pointsto

import (
	"cmp"
	"slices"
)

// facts are the input relations of the analysis, appended as they are
// generated, repeats included. Variables, heap objects and fields are
// each numbered densely from 0.
type facts struct {
	alloc    [][2]int32 // Alloc(V, H): V holds a new object H
	move     [][2]int32 // Move(V, W): V = W
	store    [][3]int32 // Store(V, F, W): V.F = W
	load     [][3]int32 // Load(V, W, F): V = W.F
	modified []int32    // Modified(V): V is set by an augmented assignment
}

// solve computes the least fixpoint of the analysis rules over the facts
// of numVars variables:
//
//	VarPointsTo(V, H) :- Alloc(V, H).
//	VarPointsTo(V, H) :- Move(V, W), VarPointsTo(W, H).
//	FieldPointsTo(H, F, H2) :- Store(V, F, W), VarPointsTo(V, H), VarPointsTo(W, H2).
//	VarPointsTo(V, H2) :- Load(V, W, F), VarPointsTo(W, H1), FieldPointsTo(H1, F, H2).
//	Tainted(V) :- Modified(V).
//	Tainted(V) :- Move(V, W), Tainted(W).
//
// It first deduplicates the Alloc, Move, Store and Load tuples in place,
// by sort and compact. VarPointsTo is then computed by difference
// propagation: each new VarPointsTo(W, H) is pushed once along the edges
// leaving W in the rules' joins (the moves out of W, the stores with W as
// base or as source, the loads with W as base), and a load whose base
// points to H1 stays a reader of (H1, F), so a FieldPointsTo(H1, F, H2)
// found later reaches it too. Tainted is the reachability of Modified
// along Move. Callers read only set membership, so the order in which
// facts are derived cannot change a result.
func solve(in *facts, numVars int) *solver {
	in.alloc, in.move = distinct(in.alloc), distinct(in.move)
	in.store, in.load = distinct(in.store), distinct(in.load)
	s := &solver{
		adj:   newAdjacency(in, numVars),
		vpt:   make(map[uint64]struct{}, len(in.alloc)),
		fpt:   make(map[uint64]struct{}),
		nodes: make(map[uint64]int32),
	}
	s.pts.head = make([]int32, numVars)
	for _, t := range in.alloc {
		s.addPts(t[0], t[1])
	}
	for len(s.work) > 0 {
		t := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		s.propagate(t[0], t[1])
	}
	s.tainted = make([]bool, numVars)
	stack := make([]int32, 0, len(in.modified))
	for _, v := range in.modified {
		if !s.tainted[v] {
			s.tainted[v] = true
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range s.adj.of(w) {
			if e.kind == moveOut && !s.tainted[e.to] {
				s.tainted[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return s
}

// distinct sorts ts and drops its repeats.
func distinct[T [2]int32 | [3]int32](ts []T) []T {
	slices.SortFunc(ts, func(a, b T) int {
		for i := range len(a) {
			if c := cmp.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	})
	return slices.Compact(ts)
}

// solver holds the least fixpoint of the rules over one set of facts,
// and the indices that computed it.
type solver struct {
	pts     lists  // VarPointsTo: the heaps of each variable
	tainted []bool // Tainted, by variable
	adj     adjacency
	// vpt and fpt hold the VarPointsTo (variable, heap) and
	// FieldPointsTo (field node, heap) pairs found so far.
	vpt, fpt map[uint64]struct{}
	// nodes numbers the (heap, field) pairs a store or a load reaches.
	// fields lists the heaps FieldPointsTo holds for each such field
	// node, and readers the variables that load it.
	nodes           map[uint64]int32
	fields, readers lists
	work            [][2]int32 // VarPointsTo pairs not yet propagated
}

func pairKey(a, b int32) uint64 { return uint64(a)<<32 | uint64(uint32(b)) }

// addPts adds VarPointsTo(v, h) and queues it if it is new.
func (s *solver) addPts(v, h int32) {
	k := pairKey(v, h)
	if _, ok := s.vpt[k]; ok {
		return
	}
	s.vpt[k] = struct{}{}
	s.pts.push(v, h)
	s.work = append(s.work, [2]int32{v, h})
}

// node returns the field node of (h, f).
func (s *solver) node(h, f int32) int32 {
	k := pairKey(h, f)
	n, ok := s.nodes[k]
	if !ok {
		n = int32(len(s.nodes))
		s.nodes[k] = n
	}
	return n
}

// addField adds FieldPointsTo(n, h) and, if it is new, passes h to every
// variable that loads n.
func (s *solver) addField(n, h int32) {
	k := pairKey(n, h)
	if _, ok := s.fpt[k]; ok {
		return
	}
	s.fpt[k] = struct{}{}
	s.fields.push(n, h)
	for p := s.readers.first(n); p != 0; p = s.readers.next[p-1] {
		s.addPts(s.readers.val[p-1], h)
	}
}

// propagate joins the new VarPointsTo(w, h) with every rule that reads
// w. A walk over a list does not visit values pushed during it; those
// are new pairs, queued to be joined in turn.
func (s *solver) propagate(w, h int32) {
	for _, e := range s.adj.of(w) {
		switch e.kind {
		case moveOut: // Move(e.to, w)
			s.addPts(e.to, h)
		case storeBase: // Store(w, e.f, e.to)
			n := s.node(h, e.f)
			for p := s.pts.first(e.to); p != 0; p = s.pts.next[p-1] {
				s.addField(n, s.pts.val[p-1])
			}
		case storeSource: // Store(e.to, e.f, w)
			for p := s.pts.first(e.to); p != 0; p = s.pts.next[p-1] {
				s.addField(s.node(s.pts.val[p-1], e.f), h)
			}
		case loadBase: // Load(e.to, w, e.f)
			n := s.node(h, e.f)
			s.readers.push(n, e.to)
			for p := s.fields.first(n); p != 0; p = s.fields.next[p-1] {
				s.addPts(e.to, s.fields.val[p-1])
			}
		}
	}
}

// Edge kinds: the rule joins a new VarPointsTo(w, _) takes part in.
const (
	moveOut uint8 = iota
	storeBase
	storeSource
	loadBase
)

// edge is one join leaving a variable w, named by the input tuple it
// comes from (see propagate).
type edge struct {
	kind  uint8
	to, f int32
}

// adjacency holds the edges of every variable in compressed sparse row
// form: the edges leaving w are edges[off[w]:off[w+1]].
type adjacency struct {
	off   []int32
	edges []edge
}

func (a *adjacency) of(w int32) []edge { return a.edges[a.off[w]:a.off[w+1]] }

func newAdjacency(in *facts, numVars int) adjacency {
	a := adjacency{off: make([]int32, numVars+1)}
	each := func(fn func(w int32, e edge)) {
		for _, t := range in.move {
			fn(t[1], edge{moveOut, t[0], 0})
		}
		for _, t := range in.store {
			fn(t[0], edge{storeBase, t[2], t[1]})
			fn(t[2], edge{storeSource, t[0], t[1]})
		}
		for _, t := range in.load {
			fn(t[1], edge{loadBase, t[0], t[2]})
		}
	}
	each(func(w int32, _ edge) { a.off[w+1]++ })
	for w := range numVars {
		a.off[w+1] += a.off[w]
	}
	a.edges = make([]edge, a.off[numVars])
	next := slices.Clone(a.off[:numVars])
	each(func(w int32, e edge) {
		a.edges[next[w]] = e
		next[w]++
	})
	return a
}

// lists keeps a list of values per dense key in flat arrays, newest
// first: head[k] is the position+1 of key k's newest value, 0 when it has
// none, and next[p] the position+1 of the value pushed before the one at
// position p.
type lists struct {
	head, val, next []int32
}

func (l *lists) push(k, v int32) {
	if int(k) >= len(l.head) {
		l.head = append(l.head, make([]int32, int(k)+1-len(l.head))...)
	}
	l.val = append(l.val, v)
	l.next = append(l.next, l.head[k])
	l.head[k] = int32(len(l.val))
}

// first returns the position+1 of key k's newest value, 0 when none.
func (l *lists) first(k int32) int32 {
	if int(k) >= len(l.head) {
		return 0
	}
	return l.head[k]
}
