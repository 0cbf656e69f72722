package mining

import (
	"fmt"
	"testing"

	"namer/internal/confusion"
	"namer/internal/namepath"
	"namer/internal/pattern"
)

// path builds a short synthetic name path.
func path(prefix string, idx int, end string) namepath.Path {
	return namepath.Path{
		Prefix: []namepath.Elem{{Value: "Call", Index: 0}, {Value: prefix, Index: idx}},
		End:    end,
	}
}

// assertStmt builds the paths of a statement shaped like
// self.assert<Word>(x, NUM).
func assertStmt(word string) *pattern.Statement {
	return pattern.NewStatement([]namepath.Path{
		path("NameLoad", 0, "self"),
		path("Attr", 0, "assert"),
		path("Attr", 1, word),
		path("Num", 0, "NUM"),
	})
}

func confusingConfig() Config {
	return Config{
		MinPathCount:           0,
		MaxPathsPerStatement:   10,
		MaxConditionPaths:      10,
		MinPatternCount:        10,
		MinSatisfactionRatio:   0.8,
		MaxCombinationsPerNode: 16,
	}
}

func TestMineConfusingWordPattern(t *testing.T) {
	pairs := confusion.NewPairSet()
	pairs.Add("True", "Equal")

	var stmts []*pattern.Statement
	for i := 0; i < 50; i++ {
		stmts = append(stmts, assertStmt("Equal"))
	}
	for i := 0; i < 5; i++ {
		stmts = append(stmts, assertStmt("True"))
	}
	patterns := MinePatterns(stmts, pattern.ConfusingWord, pairs, confusingConfig())
	if len(patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	// Some mined pattern must be violated by the buggy statements and
	// satisfied by the good ones.
	bad := assertStmt("True")
	good := assertStmt("Equal")
	foundViolating := false
	for _, p := range patterns {
		if p.Type != pattern.ConfusingWord || !p.Valid() {
			t.Errorf("invalid pattern mined: %s", p)
		}
		if bad.Violated(p) && good.Satisfied(p) {
			foundViolating = true
			v, ok := bad.Explain(p)
			if !ok || v.Original != "True" || v.Suggested != "Equal" {
				t.Errorf("fix = %+v", v)
			}
		}
	}
	if !foundViolating {
		t.Error("no mined pattern distinguishes assertTrue from assertEqual")
	}
	// Match statistics recorded.
	for _, p := range patterns {
		if p.MatchCount == 0 || p.SatisfyCount == 0 {
			t.Errorf("pattern missing stats: %+v", p)
		}
	}
}

func TestMineConsistencyPattern(t *testing.T) {
	mkStmt := func(attr, val string) *pattern.Statement {
		return pattern.NewStatement([]namepath.Path{
			path("NameLoad", 0, "self"),
			path("Attr", 0, attr),
			path("Value", 0, val),
		})
	}
	var stmts []*pattern.Statement
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("field%d", i%7)
		stmts = append(stmts, mkStmt(name, name))
	}
	for i := 0; i < 4; i++ {
		stmts = append(stmts, mkStmt("help", "docstring"))
	}
	patterns := MinePatterns(stmts, pattern.Consistency, nil, confusingConfig())
	if len(patterns) == 0 {
		t.Fatal("no consistency patterns mined")
	}
	bad := mkStmt("help", "docstring")
	good := mkStmt("name", "name")
	ok := false
	for _, p := range patterns {
		if !p.Valid() {
			t.Errorf("invalid pattern: %s", p)
		}
		if bad.Violated(p) && good.Satisfied(p) {
			ok = true
		}
	}
	if !ok {
		t.Error("no mined consistency pattern flags self.help = docstring")
	}
}

func TestMinPatternCountPrunes(t *testing.T) {
	pairs := confusion.NewPairSet()
	pairs.Add("True", "Equal")
	var stmts []*pattern.Statement
	for i := 0; i < 20; i++ {
		stmts = append(stmts, assertStmt("Equal"))
	}
	cfg := confusingConfig()
	cfg.MinPatternCount = 1000
	if got := MinePatterns(stmts, pattern.ConfusingWord, pairs, cfg); len(got) != 0 {
		t.Errorf("threshold should prune everything, got %d patterns", len(got))
	}
}

func TestSatisfactionRatioPrunes(t *testing.T) {
	pairs := confusion.NewPairSet()
	pairs.Add("True", "Equal")
	// Half the statements use True: ratio 0.5 < 0.8 for the deduction.
	var stmts []*pattern.Statement
	for i := 0; i < 30; i++ {
		stmts = append(stmts, assertStmt("Equal"))
		stmts = append(stmts, assertStmt("True"))
	}
	patterns := MinePatterns(stmts, pattern.ConfusingWord, pairs, confusingConfig())
	bad := assertStmt("True")
	for _, p := range patterns {
		if bad.Violated(p) {
			t.Errorf("low-consensus pattern survived pruning: %s", p)
		}
	}
}

func TestMinPathCountFiltersRarePaths(t *testing.T) {
	pairs := confusion.NewPairSet()
	pairs.Add("True", "Equal")
	var stmts []*pattern.Statement
	for i := 0; i < 30; i++ {
		// Each statement carries one globally-unique noise path.
		paths := []namepath.Path{
			path("NameLoad", 0, "self"),
			path("Attr", 1, "Equal"),
			path("Noise", i, fmt.Sprintf("unique%d", i)),
		}
		stmts = append(stmts, pattern.NewStatement(paths))
	}
	cfg := confusingConfig()
	cfg.MinPathCount = 10
	patterns := MinePatterns(stmts, pattern.ConfusingWord, pairs, cfg)
	for _, p := range patterns {
		for _, c := range p.Condition {
			if c.Prefix[1].Value == "Noise" {
				t.Errorf("rare path survived the frequency filter: %s", p)
			}
		}
	}
	if len(patterns) == 0 {
		t.Error("frequent paths should still yield patterns")
	}
}

func TestCombinations(t *testing.T) {
	items := []int{1, 2, 3}
	full := combinations(items, 1)
	if len(full) != 1 || len(full[0]) != 3 {
		t.Errorf("maxOut=1 should emit only the full set, got %v", full)
	}
	all := combinations(items, 16)
	if len(all) != 8 { // 2^3 subsets, full emitted once
		t.Errorf("got %d subsets, want 8", len(all))
	}
	// First entry is the full set.
	if len(all[0]) != 3 {
		t.Errorf("first subset should be full, got %v", all[0])
	}
	capped := combinations([]int{1, 2, 3, 4, 5}, 16)
	if len(capped) != 1 {
		t.Errorf("powerset over cap should fall back to full only, got %d", len(capped))
	}
	empty := combinations(nil, 16)
	if len(empty) != 1 || len(empty[0]) != 0 {
		t.Errorf("empty items: %v", empty)
	}
}

func TestIndexCandidates(t *testing.T) {
	pairs := confusion.NewPairSet()
	pairs.Add("True", "Equal")
	var stmts []*pattern.Statement
	for i := 0; i < 30; i++ {
		stmts = append(stmts, assertStmt("Equal"))
	}
	patterns := MinePatterns(stmts, pattern.ConfusingWord, pairs, confusingConfig())
	if len(patterns) == 0 {
		t.Fatal("no patterns")
	}
	idx := NewIndex(patterns)
	s := assertStmt("True")
	cands := idx.Candidates(s)
	if len(cands) == 0 {
		t.Fatal("no candidate patterns for a matching statement")
	}
	// A statement with entirely different prefixes gets no candidates.
	other := pattern.NewStatement([]namepath.Path{path("Other", 9, "zzz")})
	if got := idx.Candidates(other); len(got) != 0 {
		t.Errorf("unrelated statement got %d candidates", len(got))
	}
	// No duplicates, and ascending key order.
	seen := map[*pattern.Pattern]bool{}
	for i, c := range cands {
		if seen[c] {
			t.Error("duplicate candidate")
		}
		seen[c] = true
		if i > 0 && cands[i-1].Key() >= c.Key() {
			t.Errorf("candidate %d key %q not above %q", i, c.Key(), cands[i-1].Key())
		}
	}
}

func TestSplitPathsConsistency(t *testing.T) {
	paths := []namepath.Path{
		path("A", 0, "x"),
		path("B", 0, "x"),
		path("C", 0, "y"),
	}
	splits := splitPaths(paths, pattern.Consistency, nil)
	if len(splits) != 1 {
		t.Fatalf("splits = %d, want 1 (only the x/x pair)", len(splits))
	}
	sp := splits[0]
	if len(sp.deduct) != 2 || !sp.deduct[0].Symbolic() || !sp.deduct[1].Symbolic() {
		t.Errorf("deduction = %v", sp.deduct)
	}
	if len(sp.cond) != 1 || sp.cond[0].End != "y" {
		t.Errorf("condition = %v", sp.cond)
	}
}

func TestSplitPathsConfusing(t *testing.T) {
	pairs := confusion.NewPairSet()
	pairs.Add("a", "x")
	pairs.Add("b", "y")
	paths := []namepath.Path{
		path("A", 0, "x"),
		path("B", 0, "y"),
		path("C", 0, "z"),
	}
	splits := splitPaths(paths, pattern.ConfusingWord, pairs)
	if len(splits) != 2 {
		t.Fatalf("splits = %d, want 2 (x and y are correct words)", len(splits))
	}
	for _, sp := range splits {
		if len(sp.deduct) != 1 || len(sp.cond) != 2 {
			t.Errorf("split shape: %v", sp)
		}
	}
	if got := splitPaths(paths, pattern.ConfusingWord, nil); got != nil {
		t.Error("nil pair set must yield no splits")
	}
}

func TestAutoMinPatternCount(t *testing.T) {
	for files, want := range map[int]int{0: 5, 14: 5, 15: 5, 18: 6, 196: 65} {
		if got := AutoMinPatternCount(files); got != want {
			t.Errorf("AutoMinPatternCount(%d) = %d, want %d", files, got, want)
		}
	}
}
