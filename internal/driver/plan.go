// Package driver implements distributed, resumable corpus mining: a
// map/reduce split of the §3.3 pipeline where the corpus is partitioned
// into deterministic repo shards, map workers (in-process goroutines or
// namer-mine -worker child processes speaking JSON lines over
// stdin/stdout) emit per-shard checkpoint artifacts, and a reduce phase
// folds the shards back into knowledge byte-identical to a
// single-process mine at any shard count.
//
// The protocol has two map rounds with a count-merge barrier between
// them, because pass 2 of Algorithm 1 (transaction generation) needs the
// dataset-wide path frequencies for both its MinPathCount filter and its
// canonical item ordering:
//
//	map round 1  parse + analyze each shard's files, extract statement
//	             path lists and shard-local path counts
//	             → shard-NNNN.stmts.ck
//	reduce 1     sum the per-shard counts, mine confusing pairs from the
//	             commit history → counts.ck
//	map round 2  rebuild each shard's transactions against the global
//	             counts, grow one FP subtree per pattern type
//	             → shard-NNNN.trees.ck
//	reduce 2     remap-merge the shard trees, run FP-growth and the
//	             satisfaction-ratio prune once, assemble the artifact
//
// Every artifact is a CRC-checked, atomically-written checkpoint
// (knowledge.WriteCheckpoint) that embeds the content hash of the corpus
// slice it was computed from, so a restarted driver re-runs exactly the
// shards whose checkpoints are missing, corrupt, or stale.
package driver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"namer/internal/ast"
	"namer/internal/core"
	"namer/internal/parallel"
)

// shardPlan is one corpus shard: a contiguous run of repositories'
// files, in the exact order a single-process LoadDirectory would visit
// them, plus the content hash of the slice.
type shardPlan struct {
	files []string // corpus-relative paths, lexical walk order
	hash  string   // hex sha256 over (path, size, content) of every file
}

// plan is the deterministic shard layout for one corpus + config.
type plan struct {
	shards []shardPlan
	hash   string // hex sha256 over the config fingerprint and shard hashes
}

// buildPlan lists the corpus, groups files by repository (repos never
// straddle shards, and lexical walk order keeps each repo's files
// contiguous), partitions the repo sequence into `shards` balanced
// contiguous buckets, and hashes every shard's file contents. The result
// is a pure function of the corpus tree, the language, and the config
// fingerprint — two drivers over the same inputs compute the same plan,
// which is what lets a resumed driver trust checkpoints it did not
// write.
func buildPlan(root string, lang ast.Language, shards int, fingerprint string) (plan, error) {
	files, err := core.ListSources(root, lang)
	if err != nil {
		return plan{}, fmt.Errorf("driver: list corpus: %w", err)
	}
	if len(files) == 0 {
		return plan{}, fmt.Errorf("driver: no %v files under %s", lang, root)
	}

	// Group consecutive files by repo. WalkDir is lexical, so all of one
	// top-level directory's files are consecutive.
	type group struct{ lo, hi int }
	var groups []group
	for i := 0; i < len(files); {
		j := i + 1
		for j < len(files) && core.RepoOf(files[j]) == core.RepoOf(files[i]) {
			j++
		}
		groups = append(groups, group{i, j})
		i = j
	}

	var p plan
	for _, s := range parallel.Shards(len(groups), shards) {
		p.shards = append(p.shards, shardPlan{
			files: files[groups[s.Lo].lo:groups[s.Hi-1].hi],
		})
	}
	for i := range p.shards {
		h, err := hashSlice(root, p.shards[i].files)
		if err != nil {
			return plan{}, err
		}
		p.shards[i].hash = h
	}
	ph := sha256.New()
	ph.Write([]byte(fingerprint))
	for _, s := range p.shards {
		ph.Write([]byte{0})
		ph.Write([]byte(s.hash))
	}
	p.hash = hex.EncodeToString(ph.Sum(nil))
	return p, nil
}

// hashSlice hashes one shard's corpus slice: every file's relative path,
// length, and content, in shard order. A checkpoint embedding this hash
// is valid only for the exact bytes it was mined from.
func hashSlice(root string, rels []string) (string, error) {
	h := sha256.New()
	var scratch [binary.MaxVarintLen64]byte
	for _, rel := range rels {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return "", fmt.Errorf("driver: hash corpus slice: %w", err)
		}
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(data)))])
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
