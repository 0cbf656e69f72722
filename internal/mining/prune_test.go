package mining_test

import (
	"fmt"
	"math/rand"
	"testing"

	"namer/internal/ast"
	"namer/internal/confusion"
	"namer/internal/core"
	"namer/internal/corpus"
	"namer/internal/mining"
	"namer/internal/namepath"
	"namer/internal/parallel"
	"namer/internal/pattern"
	"namer/internal/samples"
)

// pruneOracle is the plain reference for PruneUncommon, with no index:
// every candidate is checked against every statement with
// Pattern.Matches and Pattern.Satisfied. A candidate without a
// deduction is not a pattern (Pattern.Valid) and is never counted. It
// returns the kept patterns in candidate order and each candidate's
// match and satisfaction counts. Candidates are counted on every CPU,
// each into its own slots.
func pruneOracle(cands []*pattern.Pattern, stmts []*pattern.Statement, minRatio float64) (kept []*pattern.Pattern, matches, satisfies []int) {
	matches = make([]int, len(cands))
	satisfies = make([]int, len(cands))
	parallel.ForEach(len(cands), parallel.Degree(0), func(i int) {
		p := cands[i]
		if len(p.Deduction) == 0 {
			return
		}
		for _, s := range stmts {
			if p.Matches(s.Paths) {
				matches[i]++
				if p.Satisfied(s.Paths) {
					satisfies[i]++
				}
			}
		}
	})
	for i, p := range cands {
		if matches[i] > 0 && float64(satisfies[i])/float64(matches[i]) >= minRatio {
			kept = append(kept, p)
		}
	}
	return kept, matches, satisfies
}

// checkPruneAgainstOracle runs PruneUncommon at several degrees and
// requires the oracle's kept slice (same pointers, same order) and
// counts at each.
func checkPruneAgainstOracle(t *testing.T, cands []*pattern.Pattern, stmts []*pattern.Statement, minRatio float64) {
	t.Helper()
	want, matches, satisfies := pruneOracle(cands, stmts, minRatio)
	pos := make(map[*pattern.Pattern]int, len(cands))
	for i, p := range cands {
		pos[p] = i
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, p := range cands {
			p.MatchCount, p.SatisfyCount = -1, -1
		}
		got := mining.PruneUncommon(cands, stmts, minRatio, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: kept %d patterns, oracle keeps %d", workers, len(got), len(want))
		}
		for i, p := range got {
			if p != want[i] {
				t.Fatalf("workers=%d: kept[%d] = %s, oracle has %s", workers, i, p.Key(), want[i].Key())
			}
			j := pos[p]
			if p.MatchCount != matches[j] || p.SatisfyCount != satisfies[j] {
				t.Fatalf("workers=%d: %s counts %d/%d, oracle %d/%d", workers, p.Key(),
					p.SatisfyCount, p.MatchCount, satisfies[j], matches[j])
			}
		}
	}
}

// randomPruneInput builds statements and candidates over a small path
// vocabulary, so prefixes repeat within a statement (some statements
// have more than ten paths) and across patterns. The candidates, in no
// particular order, include duplicate keys and patterns without a
// deduction.
func randomPruneInput(rng *rand.Rand) ([]*pattern.Pattern, []*pattern.Statement) {
	prefixes := make([][]namepath.Elem, 6)
	for i := range prefixes {
		prefixes[i] = []namepath.Elem{{Value: "Call", Index: 0}, {Value: fmt.Sprintf("K%d", i%4), Index: i / 4}}
	}
	ends := []string{"a", "b", "c"}
	concrete := func() namepath.Path {
		p := namepath.Path{Prefix: prefixes[rng.Intn(len(prefixes))], End: ends[rng.Intn(len(ends))]}
		if rng.Intn(2) == 0 {
			return p.Memoized()
		}
		return p
	}
	stmts := make([]*pattern.Statement, 40+rng.Intn(40))
	for i := range stmts {
		paths := make([]namepath.Path, 1+rng.Intn(16))
		for j := range paths {
			paths[j] = concrete()
		}
		stmts[i] = pattern.NewStatement(paths)
	}
	var cands []*pattern.Pattern
	for n := 10 + rng.Intn(30); len(cands) < n; {
		p := &pattern.Pattern{Type: pattern.Type(rng.Intn(2))}
		for k := rng.Intn(3); k > 0; k-- {
			c := concrete()
			if rng.Intn(3) == 0 {
				c = c.WithEnd(namepath.Epsilon)
			}
			p.Condition = append(p.Condition, c)
		}
		switch {
		case rng.Intn(8) == 0: // no deduction
		case p.Type == pattern.Consistency:
			p.Deduction = []namepath.Path{concrete().WithEnd(namepath.Epsilon), concrete().WithEnd(namepath.Epsilon)}
		default:
			p.Deduction = []namepath.Path{concrete()}
		}
		cands = append(cands, p)
		if rng.Intn(4) == 0 { // a second pattern with the same key
			dup := *p
			cands = append(cands, &dup)
		}
	}
	return cands, stmts
}

// checkCandidates requires Candidates to return, for each statement, the
// patterns with a deduction whose first deduction prefix occurs in the
// statement, each once, in ascending key order, ties in input order.
func checkCandidates(t *testing.T, idx *mining.Index, cands []*pattern.Pattern, stmts []*pattern.Statement) {
	t.Helper()
	pos := make(map[*pattern.Pattern]int, len(cands))
	for i, p := range cands {
		pos[p] = i
	}
	for si, s := range stmts {
		got := idx.Candidates(s)
		want := 0
		for _, p := range cands {
			if len(p.Deduction) == 0 {
				continue
			}
			for _, x := range s.Paths {
				if p.Deduction[0].Same(x) {
					want++
					break
				}
			}
		}
		if len(got) != want {
			t.Fatalf("statement %d: %d candidates, want %d", si, len(got), want)
		}
		seen := map[*pattern.Pattern]bool{}
		for i, p := range got {
			if seen[p] {
				t.Fatalf("statement %d: duplicate candidate %s", si, p.Key())
			}
			seen[p] = true
			if i > 0 {
				prev := got[i-1]
				if prev.Key() > p.Key() || prev.Key() == p.Key() && pos[prev] > pos[p] {
					t.Fatalf("statement %d: candidates out of key order at %d", si, i)
				}
			}
		}
	}
}

func TestPruneMatchesOracleRandom(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cands, stmts := randomPruneInput(rng)
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			checkCandidates(t, mining.NewIndex(cands), cands, stmts)
			checkPruneAgainstOracle(t, cands, stmts, []float64{0, 0.5, 0.8}[seed%3])
		})
	}
}

// sampleCandidates processes a sample's files and grows the unpruned
// candidates of one pattern type at the given support threshold.
func sampleCandidates(t testing.TB, s samples.Sample, t0 pattern.Type, pairs *confusion.PairSet, minCount int) ([]*pattern.Pattern, []*pattern.Statement) {
	t.Helper()
	cfg := core.DefaultConfig(s.Lang)
	sys := core.NewSystem(cfg)
	var stmts []*pattern.Statement
	for _, f := range s.Files {
		for _, ps := range sys.ProcessFile(&core.InputFile{Path: f.Path, Source: f.Source, Root: f.Root}) {
			stmts = append(stmts, ps.PS)
		}
	}
	mcfg := cfg.Mining
	mcfg.MinPatternCount = minCount
	st := mining.BuildShardTree(stmts, t0, pairs, mining.CountPaths(stmts, 1), mcfg)
	cands := mining.Grow(st, t0, pairs, mcfg)
	if len(cands) == 0 {
		t.Fatalf("%s: no %s candidates", s.Name, t0)
	}
	return cands, stmts
}

func TestPruneMatchesOraclePython(t *testing.T) {
	s, err := samples.Synthetic(ast.Python)
	if err != nil {
		t.Fatal(err)
	}
	pairs := confusion.MinePairs(corpus.Generate(corpus.DefaultConfig(ast.Python)).Commits).Prune(3)
	minCount := mining.AutoMinPatternCount(len(s.Files))
	for _, typ := range []pattern.Type{pattern.Consistency, pattern.ConfusingWord} {
		cands, stmts := sampleCandidates(t, s, typ, pairs, minCount)
		checkPruneAgainstOracle(t, cands, stmts, 0.8)
	}
}

func TestPruneMatchesOracleGoroot(t *testing.T) {
	s, ok, reason := samples.Goroot()
	if !ok {
		t.Skip(reason)
	}
	cands, stmts := sampleCandidates(t, s, pattern.Consistency, nil, 8)
	checkPruneAgainstOracle(t, cands, stmts, 0.8)
}

// Patterns with equal keys are ranked by input position, so every build
// returns them in input order (and Dedup keeps the same one), and prune
// counts each of them separately.
func TestDuplicateKeysKeepInputOrder(t *testing.T) {
	var paths []namepath.Path
	var keys [][]namepath.Path
	for i := 0; i < 4; i++ {
		a := namepath.Path{Prefix: []namepath.Elem{{Value: "Attr", Index: i}}, End: "x"}
		v := namepath.Path{Prefix: []namepath.Elem{{Value: "Value", Index: i}}, End: "x"}
		paths = append(paths, a, v)
		keys = append(keys, []namepath.Path{a.WithEnd(namepath.Epsilon), v.WithEnd(namepath.Epsilon)})
	}
	// Ten patterns for each of four keys, interleaved in input order.
	var pats []*pattern.Pattern
	for i := 0; i < 40; i++ {
		pats = append(pats, &pattern.Pattern{Type: pattern.Consistency, Deduction: keys[(i*3)%4]})
	}
	stmt := pattern.NewStatement(paths)
	for build := 0; build < 5; build++ {
		got := mining.NewIndex(pats).Candidates(stmt)
		if len(got) != len(pats) {
			t.Fatalf("build %d: %d candidates, want %d", build, len(got), len(pats))
		}
		pos := map[*pattern.Pattern]int{}
		for i, p := range pats {
			pos[p] = i
		}
		for i := 1; i < len(got); i++ {
			prev, cur := got[i-1], got[i]
			if prev.Key() > cur.Key() || prev.Key() == cur.Key() && pos[prev] > pos[cur] {
				t.Fatalf("build %d: input pattern %d before %d; want key order, ties in input order",
					build, pos[prev], pos[cur])
			}
		}
	}
	kept := mining.PruneUncommon(pats, []*pattern.Statement{stmt, stmt, stmt}, 0.8, 2)
	if len(kept) != len(pats) {
		t.Fatalf("kept %d of %d duplicate-key patterns", len(kept), len(pats))
	}
	for i, p := range kept {
		if p != pats[i] || p.MatchCount != 3 || p.SatisfyCount != 3 {
			t.Errorf("kept[%d]: %d/%d, want the input pattern with 3/3", i, p.SatisfyCount, p.MatchCount)
		}
	}
}

// The lookup shared by pruning and detection allocates nothing once the
// caller's buffer has grown to fit.
func TestAppendCandidatesNoAllocs(t *testing.T) {
	s, err := samples.Synthetic(ast.Python)
	if err != nil {
		t.Fatal(err)
	}
	cands, stmts := sampleCandidates(t, s, pattern.Consistency, nil, 5)
	idx := mining.NewIndex(cands)
	var buf []mining.Candidate
	for _, st := range stmts {
		buf = idx.AppendCandidates(buf[:0], st)
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, st := range stmts {
			buf = idx.AppendCandidates(buf[:0], st)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendCandidates with a warm buffer: %v allocs per pass, want 0", allocs)
	}
}
