package core

import (
	"fmt"

	"namer/internal/ast"
	"namer/internal/confusion"
	"namer/internal/features"
	"namer/internal/knowledge"
	"namer/internal/mining"
	"namer/internal/ml"
)

// Knowledge is the serializable product of mining and training: everything
// a fresh Namer process needs to detect issues in new code without
// re-mining — the confusing word pairs, the name patterns, and the trained
// defect classifier. It is an alias for knowledge.Artifact, which owns the
// on-disk encodings (flat binary by default, JSON for debugging).
type Knowledge = knowledge.Artifact

// ExportKnowledge captures the system's mined and trained state.
func (s *System) ExportKnowledge() (*Knowledge, error) {
	k := &Knowledge{
		Lang:     s.cfg.Lang.String(),
		Pairs:    s.Pairs,
		Patterns: s.Patterns,
	}
	if s.classifier != nil {
		st, err := s.classifier.Export()
		if err != nil {
			return nil, err
		}
		k.Classifier = st
	}
	return k, nil
}

// ImportKnowledge installs previously exported state into a fresh system.
// Any supported language is accepted (Python, Java, and Go knowledge all
// load; the language names are resolved by ast.ParseLanguage).
//
// The import is all-or-nothing: everything is validated and built into
// locals first and committed in one step at the end, so an import error
// leaves the system exactly as it was. A hot-reload path that feeds a
// bad artifact through here therefore cannot corrupt the bundle that is
// still serving.
func (s *System) ImportKnowledge(k *Knowledge) error {
	lang, err := ast.ParseLanguage(k.Lang)
	if err != nil {
		return fmt.Errorf("core: %w (system left unchanged)", err)
	}
	pairs := k.Pairs
	if pairs == nil {
		pairs = confusion.NewPairSet()
	}
	for i, p := range k.Patterns {
		if p == nil {
			return fmt.Errorf("core: pattern %d is nil (system left unchanged)", i)
		}
		if !p.Valid() {
			return fmt.Errorf("core: pattern %d is invalid for type %v (system left unchanged)", i, p.Type)
		}
		// Warm every pattern's identity key from this goroutine so
		// concurrent read-only scans never race on the lazy cache (NewIndex
		// warms the patterns it buckets, but not invalid stragglers).
		p.Key()
	}
	index := mining.NewIndex(k.Patterns)
	var classifier *ml.Pipeline
	if c := k.Classifier; c != nil {
		// A classifier of the wrong shape restores fine but panics on the
		// first Classify, so it must fail here, before the commit point.
		if err := c.Validate(); err != nil {
			return fmt.Errorf("core: %w (system left unchanged)", err)
		}
		if len(c.Mean) != features.Count {
			return fmt.Errorf("core: classifier expects %d features, this build extracts %d (system left unchanged)",
				len(c.Mean), features.Count)
		}
		classifier = ml.Restore(c)
	}

	// Commit point: nothing below can fail.
	s.cfg.Lang = lang
	s.Pairs = pairs
	s.Patterns = k.Patterns
	s.index = index
	s.classifier = classifier
	// Any attached scan cache keyed against the previous knowledge is now
	// stale; drop it rather than serve results mined by the old patterns.
	s.cache = nil
	return nil
}

// SaveKnowledge writes the exported state to path atomically, in the
// binary knowledge format.
func (s *System) SaveKnowledge(path string) error {
	k, err := s.ExportKnowledge()
	if err != nil {
		return err
	}
	return knowledge.Save(path, k)
}

// LoadKnowledge reads exported state from a binary knowledge file.
func (s *System) LoadKnowledge(path string) error {
	k, err := knowledge.Load(path)
	if err != nil {
		return err
	}
	return s.ImportKnowledge(k)
}
