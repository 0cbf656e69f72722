package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"namer/internal/ast"
	"namer/internal/confusion"
	"namer/internal/features"
	"namer/internal/knowledge"
	"namer/internal/ml"
	"namer/internal/pattern"
)

// TestKnowledgeRoundTripBinary checks the knowledge format against the
// system that mined the knowledge: after Save → Load, a fresh system
// holds the same patterns and pairs, and its scan of the mined corpus
// finds the same violations with the same classifier decisions.
func TestKnowledgeRoundTripBinary(t *testing.T) {
	sys, c, res := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	violations := res.Violations
	if len(violations) < 20 {
		t.Skip("not enough violations")
	}
	var vs []*Violation
	var ys []int
	for i, v := range violations {
		if i >= 60 {
			break
		}
		vs = append(vs, v)
		sev, _ := c.Judge(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original)
		if sev != 0 {
			ys = append(ys, 1)
		} else {
			ys = append(ys, 0)
		}
	}
	sys.TrainClassifier(res.Stats, vs, ys)

	path := filepath.Join(t.TempDir(), "knowledge.bin")
	if err := sys.SaveKnowledge(path); err != nil {
		t.Fatal(err)
	}
	loaded := NewSystem(DefaultConfig(ast.Python))
	if err := loaded.LoadKnowledge(path); err != nil {
		t.Fatal(err)
	}

	if len(loaded.Patterns) != len(sys.Patterns) {
		t.Fatalf("patterns: loaded %d vs mined %d", len(loaded.Patterns), len(sys.Patterns))
	}
	for i, p := range sys.Patterns {
		q := loaded.Patterns[i]
		if p.Key() != q.Key() || p.Count != q.Count || p.MatchCount != q.MatchCount ||
			p.SatisfyCount != q.SatisfyCount {
			t.Fatalf("pattern %d diverged: loaded %v vs mined %v", i, q, p)
		}
	}
	if got, want := loaded.Pairs.Pairs(), sys.Pairs.Pairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs: loaded %v vs mined %v", got, want)
	}
	for _, p := range sys.Pairs.Pairs() {
		if loaded.Pairs.Count(p[0], p[1]) != sys.Pairs.Count(p[0], p[1]) {
			t.Fatalf("pair %v count: loaded %d vs mined %d", p,
				loaded.Pairs.Count(p[0], p[1]), sys.Pairs.Count(p[0], p[1]))
		}
	}

	var files []*InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &InputFile{Repo: r.Name, Path: f.Path, Source: f.Source, Root: f.Root})
		}
	}
	resL := loaded.ScanFiles(files)
	if len(resL.Errors) != 0 {
		t.Fatalf("scan errors: %v", resL.Errors)
	}
	vL := resL.Violations
	if len(vL) != len(violations) {
		t.Fatalf("violations: loaded %d vs mined %d", len(vL), len(violations))
	}
	for i, v := range violations {
		l := vL[i]
		if l.Stmt.Repo != v.Stmt.Repo || l.Stmt.Path != v.Stmt.Path || l.Stmt.Line != v.Stmt.Line ||
			l.Pattern.Key() != v.Pattern.Key() ||
			l.Detail.Original != v.Detail.Original || l.Detail.Suggested != v.Detail.Suggested {
			t.Fatalf("violation %d diverged: loaded %v vs mined %v", i, l.Detail, v.Detail)
		}
		if loaded.ClassifyIn(resL.Stats, l) != sys.ClassifyIn(res.Stats, v) {
			t.Fatalf("classification diverged at violation %d", i)
		}
	}
}

// TestLoadKnowledgeRejectsJSON: a JSON artifact, as older builds wrote
// it, fails LoadKnowledge with the re-mine error and leaves the system's
// knowledge as it was.
func TestLoadKnowledgeRejectsJSON(t *testing.T) {
	sys, _, _ := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	patterns := sys.Patterns
	path := filepath.Join(t.TempDir(), "knowledge.json")
	if err := os.WriteFile(path, []byte(legacyJSONKnowledge), 0o644); err != nil {
		t.Fatal(err)
	}
	err := sys.LoadKnowledge(path)
	if err == nil || !strings.Contains(err.Error(), "JSON knowledge is no longer read") ||
		!strings.Contains(err.Error(), "re-run namer-mine") {
		t.Fatalf("LoadKnowledge of a JSON artifact: got %v, want the re-mine error", err)
	}
	if len(sys.Patterns) != len(patterns) || (len(patterns) > 0 && sys.Patterns[0] != patterns[0]) {
		t.Fatal("failed load replaced the system's patterns")
	}
}

// legacyJSONKnowledge is a small artifact in the JSON format older
// builds wrote to a ".json" destination.
const legacyJSONKnowledge = `{
 "lang": "Python",
 "pairs": [
  {
   "mistaken": "recieve",
   "correct": "receive",
   "count": 7
  }
 ],
 "patterns": [
  {
   "type": "confusing-word",
   "condition": null,
   "deduction": [
    "Expr 0 Call 0 AttributeLoad 1 receive"
   ],
   "count": 12,
   "match_count": 12,
   "satisfy_count": 9
  }
 ]
}
`

// TestImportKnowledgeAllOrNothing: a failed import must leave the system
// exactly as it was — same patterns, same index, same scan output — so a
// hot-reload path can fall back to the old bundle safely.
func TestImportKnowledgeAllOrNothing(t *testing.T) {
	sys, c, _ := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	k, err := sys.ExportKnowledge()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewSystem(DefaultConfig(ast.Python))
	if err := fresh.ImportKnowledge(k); err != nil {
		t.Fatal(err)
	}
	var files []*InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &InputFile{Repo: r.Name, Path: f.Path, Source: f.Source, Root: f.Root})
		}
	}
	before := fresh.ScanFiles(files)

	bad := []*Knowledge{
		{Lang: "cobol", Pairs: confusion.NewPairSet()},
		{Lang: "Python", Pairs: confusion.NewPairSet(), Patterns: append([]*pattern.Pattern{nil}, k.Patterns...)},
		{Lang: "Python", Pairs: confusion.NewPairSet(), Patterns: []*pattern.Pattern{{Type: pattern.Consistency}}},
		// A self-consistent classifier for one feature: Restore accepts it,
		// but every Classify would index past its vectors.
		{Lang: "Python", Pairs: confusion.NewPairSet(), Patterns: k.Patterns,
			Classifier: &ml.PipelineState{Mean: []float64{0}, Std: []float64{1}, Weights: []float64{1}}},
		// The right feature count, but a ragged PCA matrix.
		{Lang: "Python", Pairs: confusion.NewPairSet(), Patterns: k.Patterns,
			Classifier: raggedPCAState(features.Count)},
	}
	for i, b := range bad {
		err := fresh.ImportKnowledge(b)
		if err == nil {
			t.Fatalf("bad knowledge %d accepted", i)
		}
		if !strings.Contains(err.Error(), "unchanged") {
			t.Fatalf("bad knowledge %d: error %q does not state the system is unchanged", i, err)
		}
	}

	after := fresh.ScanFiles(files)
	if len(after.Violations) != len(before.Violations) {
		t.Fatalf("failed imports changed scan output: %d -> %d violations",
			len(before.Violations), len(after.Violations))
	}
	for i := range before.Violations {
		a, b := before.Violations[i], after.Violations[i]
		if a.Stmt.Path != b.Stmt.Path || a.Stmt.Line != b.Stmt.Line ||
			a.Detail.Original != b.Detail.Original || a.Detail.Suggested != b.Detail.Suggested {
			t.Fatalf("violation %d diverged after failed imports", i)
		}
	}

	// A successful import drops any stale scan cache along with the old
	// knowledge; the cache's lifetime is exactly one (config, knowledge)
	// pair.
	fresh.SetFileCache(nopCache{})
	if err := fresh.ImportKnowledge(k); err != nil {
		t.Fatal(err)
	}
	if fresh.cache != nil {
		t.Fatal("stale file cache survived a knowledge import")
	}
}

// raggedPCAState is classifier state for d features whose PCA matrix
// has one row short of the d×d shape the weights need.
func raggedPCAState(d int) *ml.PipelineState {
	st := &ml.PipelineState{Mean: make([]float64, d), Std: make([]float64, d), UsePCA: true,
		PCAMean: make([]float64, d), Weights: make([]float64, d)}
	for i := 0; i < d; i++ {
		st.PCACols = append(st.PCACols, make([]float64, d))
	}
	st.PCACols[d-1] = st.PCACols[d-1][:d-1]
	return st
}

// nopCache is the minimal FileCache for cache-rotation assertions.
type nopCache struct{}

func (nopCache) Get(string) (*CachedFile, bool) { return nil, false }
func (nopCache) Add(string, *CachedFile)        {}

// TestImportKnowledgeAcceptsGo covers the bugfix: knowledge with
// lang "Go" (as ExportKnowledge writes for a Go system) imports instead
// of being rejected.
func TestImportKnowledgeAcceptsGo(t *testing.T) {
	for _, lang := range []string{"Go", "go", "golang", "Python", "Java"} {
		sys := NewSystem(DefaultConfig(ast.Python))
		k := &Knowledge{Lang: lang, Pairs: confusion.NewPairSet()}
		if err := sys.ImportKnowledge(k); err != nil {
			t.Fatalf("lang %q rejected: %v", lang, err)
		}
	}
	sys := NewSystem(DefaultConfig(ast.Python))
	err := sys.ImportKnowledge(&Knowledge{Lang: "cobol", Pairs: confusion.NewPairSet()})
	if err == nil {
		t.Fatal("unknown language accepted")
	}
	for _, want := range []string{"python", "java", "go"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list valid language %q", err, want)
		}
	}
}

// TestSaveKnowledgeAtomic verifies that saving over an existing artifact
// replaces it completely (rename semantics) and leaves no temp litter.
func TestSaveKnowledgeAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "knowledge.bin")
	if err := os.WriteFile(path, []byte("old artifact bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(DefaultConfig(ast.Python))
	sys.Pairs = confusion.NewPairSet()
	if err := sys.SaveKnowledge(path); err != nil {
		t.Fatal(err)
	}
	if _, err := knowledge.Load(path); err != nil {
		t.Fatalf("replaced artifact unreadable: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("expected only the artifact in %s, found %d entries", dir, len(entries))
	}
}

// TestProcessFilesContainsPanics: a pathological file (one that fails to
// parse stands in for a front-end panic; the front end reports both as a
// per-file error) is reported as an error while the rest of the corpus
// processes normally.
func TestProcessFilesContainsPanics(t *testing.T) {
	good, err := ParseSource(ast.Python, "def f(a):\n    b = a.parse()\n    return b\n")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(DefaultConfig(ast.Python))
	errs := sys.ProcessFiles([]*InputFile{
		{Repo: "r", Path: "bad.py", Source: "def f(:\n"},
		{Repo: "r", Path: "good.py", Source: "def f(a):\n    b = a.parse()\n    return b\n", Root: good},
	})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "bad.py") {
		t.Fatalf("expected one error naming bad.py, got %v", errs)
	}
	if len(sys.Stmts) == 0 {
		t.Fatal("good file was not processed")
	}
}

// TestParseSourceNeverPanics feeds hostile snippets to every front end;
// all must return (possibly with an error), never panic.
func TestParseSourceNeverPanics(t *testing.T) {
	snippets := []string{
		"", "\x00\x01\x02", "def f(:", "class {", "))))(((",
		strings.Repeat("(", 2000), "if x\n  y", "def f(a,\n", "\xff\xfe",
		"public class A { void f() { int x = ; } }",
	}
	for _, lang := range []ast.Language{ast.Python, ast.Java, ast.Go} {
		for _, src := range snippets {
			ParseSource(lang, src) // must not panic
		}
	}
	if _, err := ParseSource(ast.Language(99), "x"); err == nil {
		t.Fatal("unknown language accepted")
	}
}

// TestScanFilesMatchesScan: ScanFiles, the path every binary detects
// with, reports the same violations as mining's ProcessFiles+Scan, and
// scores each one with the same feature vector against its own
// statistics, whether the files arrive parsed or as source.
func TestScanFilesMatchesScan(t *testing.T) {
	sys, c, scan := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))

	// A fresh system with the same knowledge scans the same files.
	k, err := sys.ExportKnowledge()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewSystem(DefaultConfig(ast.Python))
	if err := fresh.ImportKnowledge(k); err != nil {
		t.Fatal(err)
	}
	var parsed, raw []*InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			parsed = append(parsed, &InputFile{Repo: r.Name, Path: f.Path, Source: f.Source, Root: f.Root})
			raw = append(raw, &InputFile{Repo: r.Name, Path: f.Path, Source: f.Source})
		}
	}
	for name, files := range map[string][]*InputFile{"parsed": parsed, "raw": raw} {
		res := fresh.ScanFiles(files)
		if len(res.Errors) != 0 {
			t.Fatalf("%s: scan errors: %v", name, res.Errors)
		}
		sameScan(t, name, sys, scan, fresh, res)
	}
	// ScanFiles must not leak state into the system.
	if len(fresh.Stmts) != 0 {
		t.Fatalf("ScanFiles appended %d statements to the system", len(fresh.Stmts))
	}
}

// sameScan fails unless two scans report the same violations in the same
// order, each with the same feature vector against its own scan's
// statistics.
func sameScan(t *testing.T, label string, sysA *System, a *ScanResult, sysB *System, b *ScanResult) {
	t.Helper()
	if len(a.Violations) == 0 {
		t.Fatalf("%s: no violations, nothing compared", label)
	}
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("%s: %d violations vs %d", label, len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		va, vb := a.Violations[i], b.Violations[i]
		if va.Stmt.Repo != vb.Stmt.Repo || va.Stmt.Path != vb.Stmt.Path ||
			va.Stmt.Line != vb.Stmt.Line || va.Pattern.Key() != vb.Pattern.Key() ||
			va.Detail.Original != vb.Detail.Original || va.Detail.Suggested != vb.Detail.Suggested {
			t.Fatalf("%s: violation %d differs:\n %s\n %s", label, i, va.Report(), vb.Report())
		}
		fa, fb := sysA.FeatureVectorIn(a.Stats, va), sysB.FeatureVectorIn(b.Stats, vb)
		for j := range fa {
			if fa[j] != fb[j] {
				t.Fatalf("%s: violation %d feature %d differs: %v vs %v", label, i, j, fa[j], fb[j])
			}
		}
	}
}

// TestScanFilesTimings: ScanFiles records per-stage wall times
// (front-end processing vs pattern matching) for the serving layer's
// latency histograms.
func TestScanFilesTimings(t *testing.T) {
	sys, c, _ := buildSystem(t, ast.Python, smallSystemConfig(ast.Python), smallCorpusConfig(ast.Python))
	var files []*InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &InputFile{Repo: r.Name, Path: f.Path, Source: f.Source, Root: f.Root})
		}
	}
	res := sys.ScanFiles(files)
	if res.Timings.Process <= 0 {
		t.Errorf("Process stage not timed: %v", res.Timings)
	}
	if res.Timings.Match <= 0 {
		t.Errorf("Match stage not timed: %v", res.Timings)
	}

	// Without knowledge the match stage never runs: its timing stays
	// zero while the front end is still recorded.
	empty := NewSystem(DefaultConfig(ast.Python))
	res2 := empty.ScanFiles(files[:1])
	if res2.Timings.Process <= 0 {
		t.Errorf("Process stage not timed without knowledge: %v", res2.Timings)
	}
	if res2.Timings.Match != 0 {
		t.Errorf("Match stage timed with no pattern index: %v", res2.Timings)
	}
}
