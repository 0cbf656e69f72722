package pointsto

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Generate makes random points-to-shaped facts over small domains, with
// repeats: variables 0-7, heaps 0-3 and fields 0-2, so joins, duplicates
// and cycles are common.
func (facts) Generate(r *rand.Rand, size int) reflect.Value {
	n := func() int { return r.Intn(2 + size/3) }
	const vars, heaps, fields = 8, 4, 3
	var f facts
	for range n() {
		f.alloc = append(f.alloc, [2]int32{r.Int31n(vars), r.Int31n(heaps)})
	}
	for range n() {
		f.move = append(f.move, [2]int32{r.Int31n(vars), r.Int31n(vars)})
	}
	for range n() {
		f.store = append(f.store, [3]int32{r.Int31n(vars), r.Int31n(fields), r.Int31n(vars)})
	}
	for range n() {
		f.load = append(f.load, [3]int32{r.Int31n(vars), r.Int31n(vars), r.Int31n(fields)})
	}
	for range n() {
		f.modified = append(f.modified, r.Int31n(vars))
	}
	return reflect.ValueOf(f)
}

type set map[[3]int32]bool

// naivePointsTo evaluates the rules of solve over in by applying every
// rule to every tuple until nothing changes. It also returns the number
// of distinct Alloc, Move, Store and Load tuples.
func naivePointsTo(in facts) (vpt, fpt, tainted set, inputs [4]int) {
	vpt, fpt, tainted = set{}, set{}, set{}
	for changed := true; changed; {
		changed = false
		add := func(s set, k [3]int32) {
			if !s[k] {
				s[k] = true
				changed = true
			}
		}
		for _, t := range in.alloc {
			add(vpt, [3]int32{t[0], t[1]})
		}
		for _, v := range in.modified {
			add(tainted, [3]int32{v})
		}
		for _, m := range in.move {
			for k := range vpt {
				if k[0] == m[1] {
					add(vpt, [3]int32{m[0], k[1]})
				}
			}
			if tainted[[3]int32{m[1]}] {
				add(tainted, [3]int32{m[0]})
			}
		}
		for _, s := range in.store {
			for k := range vpt {
				for k2 := range vpt {
					if k[0] == s[0] && k2[0] == s[2] {
						add(fpt, [3]int32{k[1], s[1], k2[1]})
					}
				}
			}
		}
		for _, l := range in.load {
			for k := range vpt {
				for f := range fpt {
					if k[0] == l[1] && f[0] == k[1] && f[1] == l[2] {
						add(vpt, [3]int32{l[0], f[2]})
					}
				}
			}
		}
	}
	inputs = [4]int{countDistinct(in.alloc), countDistinct(in.move), countDistinct(in.store), countDistinct(in.load)}
	return vpt, fpt, tainted, inputs
}

func countDistinct[T comparable](ts []T) int {
	seen := map[T]bool{}
	for _, t := range ts {
		seen[t] = true
	}
	return len(seen)
}

// TestPointsToMatchesNaiveFixpoint is the differential oracle of solve's
// input deduplication, adjacency, difference propagation and taint
// reachability against a naive fixpoint over Go maps.
func TestPointsToMatchesNaiveFixpoint(t *testing.T) {
	const numVars = 8
	f := func(in facts) bool {
		wantVpt, wantFpt, wantTainted, wantInputs := naivePointsTo(in)
		s := solve(&in, numVars)
		inputs := [4]int{len(in.alloc), len(in.move), len(in.store), len(in.load)}
		if inputs != wantInputs {
			t.Logf("distinct Alloc, Move, Store, Load = %v, naive %v", inputs, wantInputs)
			return false
		}
		// Each list must hold its key's set exactly once per member.
		vpt, vptLen := set{}, 0
		for v := int32(0); v < numVars; v++ {
			for p := s.pts.first(v); p != 0; p = s.pts.next[p-1] {
				vpt[[3]int32{v, s.pts.val[p-1]}] = true
				vptLen++
			}
		}
		fpt, fptLen := set{}, 0
		for k, n := range s.nodes {
			for p := s.fields.first(n); p != 0; p = s.fields.next[p-1] {
				fpt[[3]int32{int32(k >> 32), int32(k), s.fields.val[p-1]}] = true
				fptLen++
			}
		}
		tainted := set{}
		for v, ok := range s.tainted {
			if ok {
				tainted[[3]int32{int32(v)}] = true
			}
		}
		for _, c := range []struct {
			rel       string
			got, want set
			n         int
		}{{"VarPointsTo", vpt, wantVpt, vptLen}, {"FieldPointsTo", fpt, wantFpt, fptLen},
			{"Tainted", tainted, wantTainted, len(tainted)}} {
			if c.n != len(c.got) || !maps.Equal(c.got, c.want) {
				t.Logf("%s: solve has %d tuples %v, naive fixpoint %v", c.rel, c.n, c.got, c.want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
