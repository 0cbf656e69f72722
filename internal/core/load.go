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
	ext := ".py"
	switch lang {
	case ast.Java:
		ext = ".java"
	case ast.Go:
		ext = ".go"
	}
	var paths []string
	walkErr := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ext) {
			paths = append(paths, path)
		}
		return nil
	})
	loaded := make([]*InputFile, len(paths))
	failed := make([]error, len(paths))
	parallel.ForEach(len(paths), workers, func(i int) {
		loaded[i], failed[i] = loadFile(root, paths[i], lang)
	})
	var files []*InputFile
	var errs []error
	for i := range paths {
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

// loadFile reads and parses one file of the corpus at root.
func loadFile(root, path string, lang ast.Language) (*InputFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, path)
	if err != nil {
		rel = path
	}
	repo := rel
	if i := strings.IndexByte(rel, filepath.Separator); i >= 0 {
		repo = rel[:i]
	}
	src := string(data)
	node, err := ParseSource(lang, src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rel, err)
	}
	return &InputFile{Repo: repo, Path: rel, Source: src, Root: node}, nil
}
