// Package samples loads the parsed input sets that the front end's
// oracles pin and its benchmarks time: the generated Python and Java
// corpora at seed 1, and the 196 GOROOT files the goroot benchmark
// workload mines. Only tests import it.
package samples

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

	"namer/internal/ast"
	"namer/internal/corpus"
	"namer/internal/golang"
	"namer/internal/javalang"
	"namer/internal/pylang"
)

// Sample is one set of parsed input files.
type Sample struct {
	Name  string // "python", "java" or "goroot"
	Lang  ast.Language
	Files []File
}

// File is one parsed file of a sample.
type File struct {
	Path   string
	Source string
	Root   *ast.Node
}

// Synthetic parses the generated corpus of lang at seed 1, the default
// corpus every command and the python benchmark workload use.
func Synthetic(lang ast.Language) (Sample, error) {
	parse := pylang.Parse
	if lang == ast.Java {
		parse = javalang.Parse
	}
	s := Sample{Name: strings.ToLower(lang.String()), Lang: lang}
	for _, repo := range corpus.Generate(corpus.DefaultConfig(lang)).Repos {
		for _, f := range repo.Files {
			root, err := parse(f.Source)
			if err != nil {
				return s, fmt.Errorf("%s/%s: %v", repo.Name, f.Path, err)
			}
			s.Files = append(s.Files, File{Path: repo.Name + "/" + f.Path, Source: f.Source, Root: root})
		}
	}
	return s, nil
}

// The GOROOT sample is the goroot benchmark workload's mining corpus:
// the non-test .go files under these subtrees of $GOROOT/src, outside
// testdata and the directories the go tool ignores. pinnedGorootSHA256
// hashes their sorted paths and contents; another toolchain's sources
// give other results, so the sample is only used when the hash matches.
var gorootSubtrees = []string{"archive", "compress", "encoding", "hash", "io", "log",
	"mime", "regexp", "strconv", "text", "time"}

const pinnedGorootSHA256 = "2188aa4094fa16eaae8d9a7effdb2b1e7ffaa558fd9a14b79c922526a2a3d0f3"

// Goroot loads and parses the GOROOT sample. When its content hash is
// not the pinned one it returns ok=false and a reason naming both
// hashes. Files go/parser rejects are left out.
func Goroot() (s Sample, ok bool, reason string) {
	src := filepath.Join(runtime.GOROOT(), "src")
	var paths []string
	for _, st := range gorootSubtrees {
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
	if sum := hex.EncodeToString(h.Sum(nil)); sum != pinnedGorootSHA256 {
		return s, false, fmt.Sprintf("GOROOT sample hash %s differs from the pinned %s (toolchain %s)",
			sum, pinnedGorootSHA256, runtime.Version())
	}
	s = Sample{Name: "goroot", Lang: ast.Go}
	for i, p := range paths {
		root, err := golang.Parse(contents[i])
		if err != nil {
			continue
		}
		s.Files = append(s.Files, File{Path: p, Source: contents[i], Root: root})
	}
	return s, true, ""
}

// All returns the Python and Java samples, then the GOROOT sample when
// its hash matches; skipped, if not empty, says why it was left out.
func All() (all []Sample, skipped string, err error) {
	for _, lang := range []ast.Language{ast.Python, ast.Java} {
		s, err := Synthetic(lang)
		if err != nil {
			return nil, "", err
		}
		all = append(all, s)
	}
	if s, ok, reason := Goroot(); ok {
		all = append(all, s)
	} else {
		skipped = reason
	}
	return all, skipped, nil
}
