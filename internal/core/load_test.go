package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"namer/internal/ast"
	"namer/internal/corpus"
)

func TestLoadDirectory(t *testing.T) {
	dir := t.TempDir()
	ccfg := corpus.DefaultConfig(ast.Python)
	ccfg.Repos = 3
	ccfg.FilesPerRepo = 2
	c := corpus.Generate(ccfg)
	if err := c.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	// An unparseable file must be reported but not abort the walk.
	bad := filepath.Join(dir, "repo000", "src", "broken.py")
	if err := os.WriteFile(bad, []byte("def broken(:\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	files, errs := LoadDirectory(dir, ast.Python)
	if len(files) != 6 {
		t.Fatalf("loaded %d files, want 6", len(files))
	}
	if len(errs) != 1 {
		t.Fatalf("errors = %v, want exactly the broken file", errs)
	}
	for _, f := range files {
		if f.Repo == "" || f.Root == nil || f.Source == "" {
			t.Errorf("incomplete file: %+v", f.Path)
		}
		if f.Repo != "repo000" && f.Repo != "repo001" && f.Repo != "repo002" {
			t.Errorf("unexpected repo %q", f.Repo)
		}
	}
	// Java loader ignores Python files.
	jfiles, _ := LoadDirectory(dir, ast.Java)
	if len(jfiles) != 0 {
		t.Errorf("java loader found %d files in a python corpus", len(jfiles))
	}
}

// TestToolchainFlow exercises the namer-corpus -> namer-mine ->
// namer-train -> namer flow through the package APIs, including the
// knowledge round trip through disk.
func TestToolchainFlow(t *testing.T) {
	dir := t.TempDir()
	ccfg := corpus.DefaultConfig(ast.Python)
	ccfg.Repos = 16
	ccfg.FilesPerRepo = 4
	ccfg.IssueRate = 0.08
	c := corpus.Generate(ccfg)
	if err := c.WriteTo(dir); err != nil {
		t.Fatal(err)
	}

	// Mine (as namer-mine does, from disk).
	files, errs := LoadDirectory(dir, ast.Python)
	if len(errs) > 0 {
		t.Fatalf("load errors: %v", errs)
	}
	cfg := DefaultConfig(ast.Python)
	cfg.Mining.MinPatternCount = len(files) / 3
	sys := NewSystem(cfg)
	pairsSrc, err := corpus.ReadCommits(filepath.Join(dir, "commits"))
	if err != nil {
		t.Fatal(err)
	}
	commits, skipped := corpus.ParseCommitSources(ast.Python, pairsSrc)
	if skipped > 0 {
		t.Fatalf("%d commit pairs failed to parse", skipped)
	}
	sys.MinePairs(commits)
	if sys.Pairs.Len() == 0 {
		t.Fatal("no pairs mined from on-disk commits")
	}
	sys.ProcessFiles(files)
	sys.MinePatterns()
	if len(sys.Patterns) == 0 {
		t.Fatal("no patterns mined from on-disk corpus")
	}
	knowledgePath := filepath.Join(dir, "knowledge.bin")
	if err := sys.SaveKnowledge(knowledgePath); err != nil {
		t.Fatal(err)
	}

	// Train (as namer-train does): label with issues.json ground truth.
	issues, err := corpus.ReadIssues(filepath.Join(dir, "issues.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) == 0 {
		t.Fatal("no issues on disk")
	}
	scan := sys.Scan()
	violations := scan.Violations
	if len(violations) == 0 {
		t.Fatal("no violations")
	}
	isIssue := func(v *Violation) bool {
		for _, is := range issues {
			if is.Repo == v.Stmt.Repo && is.Path == v.Stmt.Path &&
				(is.Original == v.Detail.Original || is.Fixed == v.Detail.Original) {
				d := is.Line - v.Stmt.Line
				if d < 0 {
					d = -d
				}
				if d <= 1 {
					return true
				}
			}
		}
		return false
	}
	var train []*Violation
	var labels []int
	pos, neg := 0, 0
	for _, v := range violations {
		if isIssue(v) && pos < 30 {
			train = append(train, v)
			labels = append(labels, 1)
			pos++
		} else if !isIssue(v) && neg < 30 {
			train = append(train, v)
			labels = append(labels, 0)
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Skipf("degenerate labels pos=%d neg=%d", pos, neg)
	}
	sys.TrainClassifier(scan.Stats, train, labels)
	trained := filepath.Join(dir, "knowledge-trained.bin")
	if err := sys.SaveKnowledge(trained); err != nil {
		t.Fatal(err)
	}

	// Detect (as namer does): fresh process, load trained knowledge.
	sys2 := NewSystem(DefaultConfig(ast.Python))
	if err := sys2.LoadKnowledge(trained); err != nil {
		t.Fatal(err)
	}
	if !sys2.HasClassifier() {
		t.Fatal("classifier missing after reload")
	}
	files2, _ := LoadDirectory(dir, ast.Python)
	res2 := sys2.ScanFiles(files2)
	reports := 0
	tp := 0
	for _, v := range res2.Violations {
		if !sys2.ClassifyIn(res2.Stats, v) {
			continue
		}
		reports++
		if isIssue(v) {
			tp++
		}
	}
	if reports == 0 {
		t.Fatal("trained system reports nothing")
	}
	precision := float64(tp) / float64(reports)
	t.Logf("toolchain: %d reports, precision %.2f", reports, precision)
	if precision < 0.5 {
		t.Errorf("toolchain precision %.2f too low", precision)
	}
}

// TestLoadDirectoryMatchesSerial loads a tree with nested repositories, a
// file of another language, an unparseable file and an empty one on
// several worker counts: every count must give the serial path's files
// and errors, in the same order.
func TestLoadDirectoryMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	for path, src := range map[string]string{
		"alpha/main.py":                "def main():\n    count = 1\n    return count\n",
		"alpha/pkg/util.py":            "class Util:\n    def __init__(self, name):\n        self.name = name\n",
		"alpha/pkg/deep/nested/mod.py": "def helper(size):\n    total = size\n    return total\n",
		"alpha/pkg/Other.java":         "class Other {}\n",
		"beta/broken.py":               "def broken(:\n",
		"beta/empty.py":                "",
		"beta/vendor/gamma/lib.py":     "value = 2\nlimit = value\n",
		"top.py":                       "x = 1\n",
	} {
		full := filepath.Join(dir, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	type loaded struct {
		repo, path, source, fingerprint string
	}
	summarize := func(files []*InputFile, errs []error) ([]loaded, []string) {
		var fs []loaded
		for _, f := range files {
			fs = append(fs, loaded{f.Repo, f.Path, f.Source, f.Root.Fingerprint()})
		}
		var es []string
		for _, err := range errs {
			es = append(es, err.Error())
		}
		return fs, es
	}
	wantFiles, wantErrs := summarize(loadDirectory(dir, ast.Python, 1))
	var paths []string
	for _, f := range wantFiles {
		paths = append(paths, filepath.ToSlash(f.path))
	}
	if want := []string{"alpha/main.py", "alpha/pkg/deep/nested/mod.py", "alpha/pkg/util.py",
		"beta/empty.py", "beta/vendor/gamma/lib.py", "top.py"}; !reflect.DeepEqual(paths, want) {
		t.Fatalf("serial load gave %q, want %q", paths, want)
	}
	if len(wantErrs) != 1 || !strings.HasPrefix(wantErrs[0], filepath.Join("beta", "broken.py")+": ") {
		t.Fatalf("serial load errors %q, want one for beta/broken.py", wantErrs)
	}
	for _, workers := range []int{1, 2, 8} {
		gotFiles, gotErrs := summarize(loadDirectory(dir, ast.Python, workers))
		if !reflect.DeepEqual(gotFiles, wantFiles) {
			t.Errorf("%d workers: files %+v, serial %+v", workers, gotFiles, wantFiles)
		}
		if !reflect.DeepEqual(gotErrs, wantErrs) {
			t.Errorf("%d workers: errors %q, serial %q", workers, gotErrs, wantErrs)
		}
	}
	gotFiles, gotErrs := summarize(LoadDirectory(dir, ast.Python))
	if !reflect.DeepEqual(gotFiles, wantFiles) || !reflect.DeepEqual(gotErrs, wantErrs) {
		t.Errorf("LoadDirectory differs from the serial path: %+v %q", gotFiles, gotErrs)
	}
	// A root that cannot be walked gives its walk error and no files.
	files, errs := loadDirectory(filepath.Join(dir, "missing"), ast.Python, 8)
	if len(files) != 0 || len(errs) != 1 {
		t.Errorf("missing root: %d files, errors %v", len(files), errs)
	}
}
