package namer

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"namer/internal/ast"
	"namer/internal/core"
	"namer/internal/corpus"
	"namer/internal/knowledge"
)

// knowledgeBenchPath mines one representative system (patterns + pairs
// + trained classifier) and saves it as a knowledge file, shared by all
// knowledge benches in the run.
var (
	knowledgeOnce sync.Once
	knowledgeDir  string
	knowledgeErr  error
)

func knowledgeBenchPath() (string, error) {
	knowledgeOnce.Do(func() {
		opts := benchOptions(ast.Python)
		c := corpus.Generate(opts.Corpus)
		sys := core.NewSystem(opts.System)
		sys.MinePairs(c.Commits)
		files := benchCorpusFiles(c)
		sys.ProcessFiles(files)
		sys.MinePatterns()
		scan := sys.Scan()

		// Train a classifier from ground truth so the artifact carries the
		// full state (the serving deployment ships trained knowledge).
		var vs []*core.Violation
		var ys []int
		for i, v := range scan.Violations {
			if i >= 80 {
				break
			}
			vs = append(vs, v)
			if sev, _ := c.Judge(v.Stmt.Repo, v.Stmt.Path, v.Stmt.Line, v.Detail.Original); sev != 0 {
				ys = append(ys, 1)
			} else {
				ys = append(ys, 0)
			}
		}
		if len(vs) > 0 {
			sys.TrainClassifier(scan.Stats, vs, ys)
		}

		knowledgeDir, knowledgeErr = os.MkdirTemp("", "namer-knowledge-bench-*")
		if knowledgeErr != nil {
			return
		}
		knowledgeErr = sys.SaveKnowledge(filepath.Join(knowledgeDir, "k.bin"))
	})
	if knowledgeErr != nil {
		return "", knowledgeErr
	}
	return filepath.Join(knowledgeDir, "k.bin"), nil
}

// benchKnowledgeLoad measures the full import path: read the file, decode
// into an Artifact, and install it into a fresh System (what namer-serve
// does at startup and on every hot reload).
func benchKnowledgeLoad(b *testing.B, path string) {
	b.Helper()
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(core.DefaultConfig(ast.Python))
		if err := sys.LoadKnowledge(path); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKnowledgeLoadBinary(b *testing.B) {
	binPath, err := knowledgeBenchPath()
	if err != nil {
		b.Fatal(err)
	}
	benchKnowledgeLoad(b, binPath)
}

// knowledgeBenchFile is the BENCH_knowledge.json schema: the size and
// load time of the binary knowledge artifact, tracked commit over commit.
type knowledgeBenchFile struct {
	CPUs       int    `json:"cpus"`
	Corpus     string `json:"corpus"`
	Patterns   int    `json:"patterns"`
	Pairs      int    `json:"pairs"`
	Classifier bool   `json:"classifier"`

	BinaryBytes  int64 `json:"binary_bytes"`
	BinaryLoadNs int64 `json:"binary_load_ns_per_op"`
	BinaryAllocs int64 `json:"binary_allocs_per_op"`

	FormatVersion int `json:"binary_format_version"`
}

// TestWriteKnowledgeBenchJSON snapshots the artifact's size and load
// time into the file named by BENCH_KNOWLEDGE_JSON (make bench writes
// BENCH_knowledge.json); without the env var it is a no-op.
func TestWriteKnowledgeBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_KNOWLEDGE_JSON")
	if out == "" {
		t.Skip("set BENCH_KNOWLEDGE_JSON=<file> to record knowledge benchmarks (make bench)")
	}
	binPath, err := knowledgeBenchPath()
	if err != nil {
		t.Fatal(err)
	}
	binfo, err := os.Stat(binPath)
	if err != nil {
		t.Fatal(err)
	}
	k, err := knowledge.Load(binPath)
	if err != nil {
		t.Fatal(err)
	}

	bres := testing.Benchmark(func(b *testing.B) { benchKnowledgeLoad(b, binPath) })

	opts := benchOptions(ast.Python)
	file := knowledgeBenchFile{
		CPUs: runtime.NumCPU(),
		Corpus: fmt.Sprintf("python synthetic, %d repos x %d files",
			opts.Corpus.Repos, opts.Corpus.FilesPerRepo),
		Patterns:   len(k.Patterns),
		Pairs:      k.Pairs.Len(),
		Classifier: k.Classifier != nil,

		BinaryBytes:  binfo.Size(),
		BinaryLoadNs: bres.NsPerOp(),
		BinaryAllocs: bres.AllocsPerOp(),

		FormatVersion: knowledge.Version,
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d-byte artifact, %.2f ms to load",
		out, file.BinaryBytes, float64(file.BinaryLoadNs)/1e6)
}
