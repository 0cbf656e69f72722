package pointsto

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"namer/internal/ast"
	"namer/internal/corpus"
	"namer/internal/golang"
	"namer/internal/javalang"
	"namer/internal/pylang"
)

// sample is one set of parsed input files the origin oracle pins and
// BenchmarkAnalyze times.
type sample struct {
	name  string
	lang  ast.Language
	files []sampleFile
}

type sampleFile struct {
	path string
	root *ast.Node
}

// syntheticSample parses the generated corpus of lang at seed 1, the
// default corpus every command and the python benchmark workload use.
func syntheticSample(tb testing.TB, lang ast.Language) sample {
	tb.Helper()
	parse := pylang.Parse
	if lang == ast.Java {
		parse = javalang.Parse
	}
	s := sample{name: strings.ToLower(lang.String()), lang: lang}
	for _, repo := range corpus.Generate(corpus.DefaultConfig(lang)).Repos {
		for _, f := range repo.Files {
			root, err := parse(f.Source)
			if err != nil {
				tb.Fatalf("%s/%s: %v", repo.Name, f.Path, err)
			}
			s.files = append(s.files, sampleFile{path: repo.Name + "/" + f.Path, root: root})
		}
	}
	return s
}

// The GOROOT sample is the goroot benchmark workload's mining corpus:
// the non-test .go files under these subtrees of $GOROOT/src, outside
// testdata and the directories the go tool ignores. pinnedGorootMineSHA256
// hashes their sorted paths and contents; another toolchain's sources
// give other origins, so the sample is only used when the hash matches.
var gorootMineSubtrees = []string{"archive", "compress", "encoding", "hash", "io", "log",
	"mime", "regexp", "strconv", "text", "time"}

const pinnedGorootMineSHA256 = "2188aa4094fa16eaae8d9a7effdb2b1e7ffaa558fd9a14b79c922526a2a3d0f3"

// gorootSample loads and parses the GOROOT sample. When its content hash
// is not the pinned one it returns ok=false and a reason naming both
// hashes. Files go/parser rejects are left out.
func gorootSample(tb testing.TB) (s sample, ok bool, reason string) {
	tb.Helper()
	src := filepath.Join(runtime.GOROOT(), "src")
	var paths []string
	for _, st := range gorootMineSubtrees {
		err := filepath.WalkDir(filepath.Join(src, st), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				rel, err := filepath.Rel(src, path)
				if err != nil {
					return err
				}
				paths = append(paths, filepath.ToSlash(rel))
			}
			return nil
		})
		if err != nil {
			return s, false, fmt.Sprintf("GOROOT sample unreadable: %v", err)
		}
	}
	sort.Strings(paths)
	h := sha256.New()
	contents := make([]string, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(filepath.Join(src, filepath.FromSlash(p)))
		if err != nil {
			return s, false, fmt.Sprintf("GOROOT sample unreadable: %v", err)
		}
		contents[i] = string(data)
		fmt.Fprintf(h, "%s\x00%d\x00%s", p, len(data), data)
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != pinnedGorootMineSHA256 {
		return s, false, fmt.Sprintf("GOROOT sample hash %s differs from the pinned %s (toolchain %s)",
			sum, pinnedGorootMineSHA256, runtime.Version())
	}
	s = sample{name: "goroot", lang: ast.Go}
	for i, p := range paths {
		root, err := golang.Parse(contents[i])
		if err != nil {
			continue
		}
		s.files = append(s.files, sampleFile{path: p, root: root})
	}
	return s, true, ""
}
