package core

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"namer/internal/ast"
	"namer/internal/parallel"
)

// LoadDirectory walks a corpus directory and parses every source file of
// the language (.py, .java, or .go). The first path component below root
// names the repository (the layout corpus.WriteTo produces). Unparseable
// files — including ones that panic the front end — are skipped with
// their errors collected. Files are read and parsed on every CPU; files
// and errors come back in walk order whatever the CPU count, with a walk
// error last.
func LoadDirectory(root string, lang ast.Language) ([]*InputFile, []error) {
	return loadDirectory(root, lang, parallel.Degree(0))
}

// loadDirectory is LoadDirectory on at most workers goroutines; 1 is the
// serial reference path.
func loadDirectory(root string, lang ast.Language, workers int) ([]*InputFile, []error) {
	rels, walkErr := ListSources(root, lang)
	loaded := make([]*InputFile, len(rels))
	failed := make([]error, len(rels))
	parallel.ForEach(len(rels), workers, func(i int) {
		loaded[i], failed[i] = LoadFile(root, rels[i], lang)
	})
	var files []*InputFile
	var errs []error
	for i := range rels {
		if failed[i] != nil {
			errs = append(errs, failed[i])
		} else {
			files = append(files, loaded[i])
		}
	}
	if walkErr != nil {
		errs = append(errs, walkErr)
	}
	return files, errs
}

// ListSources walks a corpus directory in lexical order and returns the
// root-relative paths of the language's source files: the files
// LoadDirectory loads, in its order. On a walk error it returns the
// paths found before it along with the error.
func ListSources(root string, lang ast.Language) ([]string, error) {
	ext := ".py"
	switch lang {
	case ast.Java:
		ext = ".java"
	case ast.Go:
		ext = ".go"
	}
	var rels []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ext) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rels = append(rels, rel)
		return nil
	})
	return rels, err
}

// RepoOf names the repository of a root-relative corpus path: its first
// path component.
func RepoOf(rel string) string {
	if i := strings.IndexByte(rel, filepath.Separator); i >= 0 {
		return rel[:i]
	}
	return rel
}

// LoadFile reads and parses one file of the corpus at root, given its
// root-relative path.
func LoadFile(root, rel string, lang ast.Language) (*InputFile, error) {
	data, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		return nil, err
	}
	src := string(data)
	node, err := ParseSource(lang, src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rel, err)
	}
	return &InputFile{Repo: RepoOf(rel), Path: rel, Source: src, Root: node}, nil
}
