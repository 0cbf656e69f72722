package main

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
	"namer/internal/core"
	"namer/internal/corpus"
)

// workload is one input set and traffic mix. Every workload runs the
// same phases (batch mine/scan/driver, then serve traffic, reloads and
// editor sessions against a namer-serve child), so each prints every
// end-to-end metric; they differ in the language, the corpus, and which
// layers dominate.
type workload struct {
	lang ast.Language
	// minPatternCount is the FP-tree support threshold; 0 scales it with
	// the corpus the way namer-mine does by default.
	minPatternCount int
	// all asks the server for every violation, classified or not; the
	// Go knowledge has no classifier, so it is the only useful setting
	// there.
	all bool
	// train runs namer-train over the mined knowledge before serving.
	train bool
	// fixedRate is the offered rate of the open-loop phase (req/s),
	// under a quarter of the measured maximum rate, so its latencies are
	// the unloaded ones; rampStart is where the traced run's ramp starts
	// its search for that maximum.
	fixedRate, rampStart float64
	// changes is the number of session range edits a run sends: enough
	// windows of changeWindow for a steady change_p95_ms.
	changes int
	prepare func(r *run) (*inputs, error)
}

// inputs is what a workload's preparation produced.
type inputs struct {
	corpusDir string     // mining corpus: repositories as subdirectories
	traffic   []heldFile // held-out files the serve traffic edits
}

type heldFile struct {
	path, source string
}

var workloads = map[string]workload{
	// goroot mines real Go: the front end and the miner work at scale,
	// the served knowledge holds thousands of patterns, and every scan
	// request runs the full front end over a real held-out file.
	"goroot": {
		lang:            ast.Go,
		minPatternCount: 8,
		all:             true,
		fixedRate:       60,
		rampStart:       300,
		changes:         2400,
		prepare:         prepareGoroot,
	},
	// python is the only workload with a trained classifier and the
	// incremental overlay splicer (which is Python-only); its knowledge
	// is small, so the front end does little per request.
	"python": {
		lang:      ast.Python,
		train:     true,
		fixedRate: 200,
		rampStart: 700,
		changes:   4800,
		prepare:   preparePython,
	},
}

// Pinned Go inputs. The mining subtrees and the held-out traffic
// subtree are disjoint; pinnedGorootSHA256 is the sha256 of their sorted
// file list and contents (see hashFiles), so a toolchain whose sources
// differ fails fast instead of silently measuring other inputs.
var (
	mineSubtrees = []string{"archive", "compress", "encoding", "hash", "io", "log",
		"mime", "regexp", "strconv", "text", "time"}
	trafficSubtree     = "crypto"
	pinnedGorootSHA256 = "53448f08897ad5bf7715a46c13c6c42336cab8add3c08d702cdebe20068138a3"
)

// maxTrafficBytes keeps request files editor-buffer sized. The 6% of
// crypto files above it (mostly generated tables and assembly-backed
// implementations) take 50-100+ ms each, so a handful of draws of them
// would decide every tail percentile by sampling luck.
const maxTrafficBytes = 32 << 10

// goFiles lists the non-test .go files under $GOROOT/src/<subtree>,
// skipping testdata and the directories the go tool ignores, as paths
// relative to $GOROOT/src, sorted.
func goFiles(src, subtree string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(filepath.Join(src, subtree), func(path string, d fs.DirEntry, err error) error {
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
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out = append(out, filepath.ToSlash(rel))
		return nil
	})
	sort.Strings(out)
	return out, err
}

// hashFiles hashes the sorted list of (path, content) pairs.
func hashFiles(paths []string, contents map[string]string) string {
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, p := range sorted {
		fmt.Fprintf(h, "%s\x00%d\x00%s", p, len(contents[p]), contents[p])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func prepareGoroot(r *run) (*inputs, error) {
	src := filepath.Join(runtime.GOROOT(), "src")
	var minePaths, trafficPaths []string
	for _, st := range mineSubtrees {
		ps, err := goFiles(src, st)
		if err != nil {
			return nil, err
		}
		minePaths = append(minePaths, ps...)
	}
	trafficPaths, err := goFiles(src, trafficSubtree)
	if err != nil {
		return nil, err
	}
	contents := map[string]string{}
	all := append(append([]string(nil), minePaths...), trafficPaths...)
	for _, p := range all {
		data, err := os.ReadFile(filepath.Join(src, filepath.FromSlash(p)))
		if err != nil {
			return nil, err
		}
		contents[p] = string(data)
	}
	sum := hashFiles(all, contents)
	logf("go %s, nproc %d, seed %d", runtime.Version(), runtime.NumCPU(), r.seed)
	logf("mining subtrees %s (%d files), traffic subtree %s (%d files)",
		strings.Join(mineSubtrees, ","), len(minePaths), trafficSubtree, len(trafficPaths))
	logf("inputs sha256 %s", sum)
	if sum != pinnedGorootSHA256 {
		return nil, fmt.Errorf("GOROOT inputs hash %s differs from the pinned %s (toolchain %s): "+
			"the corpus is not the one this benchmark's baselines were measured on",
			sum, pinnedGorootSHA256, runtime.Version())
	}

	in := &inputs{corpusDir: filepath.Join(r.work, "corpus")}
	for _, p := range minePaths {
		dst := filepath.Join(in.corpusDir, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(dst, []byte(contents[p]), 0o644); err != nil {
			return nil, err
		}
	}
	for _, p := range trafficPaths {
		s := contents[p]
		if len(s) > maxTrafficBytes {
			continue
		}
		if _, err := core.ParseSource(ast.Go, s); err != nil {
			continue
		}
		in.traffic = append(in.traffic, heldFile{path: p, source: s})
	}
	return in, nil
}

func preparePython(r *run) (*inputs, error) {
	cfg := corpus.DefaultConfig(ast.Python)
	cfg.Seed = r.seed
	c := corpus.Generate(cfg)
	in := &inputs{corpusDir: filepath.Join(r.work, "corpus")}
	if err := c.WriteTo(in.corpusDir); err != nil {
		return nil, err
	}
	// Held-out traffic: a second corpus from a derived seed, so no
	// request file was mined.
	held := corpus.DefaultConfig(ast.Python)
	held.Seed = r.seed + 7919
	held.Repos = 12
	for _, repo := range corpus.Generate(held).Repos {
		for _, f := range repo.Files {
			in.traffic = append(in.traffic, heldFile{path: repo.Name + "/" + f.Path, source: f.Source})
		}
	}
	logf("go %s, nproc %d, seed %d", runtime.Version(), runtime.NumCPU(), r.seed)
	logf("python corpus %d files in %d repos, %d held-out traffic files",
		c.TotalFiles(), len(c.Repos), len(in.traffic))
	return in, nil
}
