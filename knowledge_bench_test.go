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

// knowledgeBenchPaths mines one representative system (patterns + pairs
// + trained classifier) and saves it in both on-disk formats (JSON debug
// and flat binary), shared by all knowledge benches in the run.
var (
	knowledgeOnce sync.Once
	knowledgeDir  string
	knowledgeErr  error
)

func knowledgeBenchPaths() (jsonPath, binPath string, err error) {
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
		if knowledgeErr = sys.SaveKnowledge(filepath.Join(knowledgeDir, "k.json")); knowledgeErr != nil {
			return
		}
		knowledgeErr = sys.SaveKnowledge(filepath.Join(knowledgeDir, "k.bin"))
	})
	if knowledgeErr != nil {
		return "", "", knowledgeErr
	}
	return filepath.Join(knowledgeDir, "k.json"), filepath.Join(knowledgeDir, "k.bin"), nil
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

func BenchmarkKnowledgeLoadJSON(b *testing.B) {
	jsonPath, _, err := knowledgeBenchPaths()
	if err != nil {
		b.Fatal(err)
	}
	benchKnowledgeLoad(b, jsonPath)
}

func BenchmarkKnowledgeLoadBinary(b *testing.B) {
	_, binPath, err := knowledgeBenchPaths()
	if err != nil {
		b.Fatal(err)
	}
	benchKnowledgeLoad(b, binPath)
}

// knowledgeBenchFile is the BENCH_knowledge.json schema: size and
// load-time comparison between the JSON debug format and the flat
// binary format, tracked commit over commit.
type knowledgeBenchFile struct {
	CPUs       int    `json:"cpus"`
	Corpus     string `json:"corpus"`
	Patterns   int    `json:"patterns"`
	Pairs      int    `json:"pairs"`
	Classifier bool   `json:"classifier"`

	JSONBytes   int64   `json:"json_bytes"`
	BinaryBytes int64   `json:"binary_bytes"`
	SizeRatio   float64 `json:"size_ratio"` // json / binary

	JSONLoadNs   int64   `json:"json_load_ns_per_op"`
	BinaryLoadNs int64   `json:"binary_load_ns_per_op"`
	LoadSpeedup  float64 `json:"load_speedup"` // json / binary
	JSONAllocs   int64   `json:"json_allocs_per_op"`
	BinaryAllocs int64   `json:"binary_allocs_per_op"`

	FormatVersion int `json:"binary_format_version"`
}

// TestWriteKnowledgeBenchJSON snapshots the format comparison into the
// file named by BENCH_KNOWLEDGE_JSON (make bench writes
// BENCH_knowledge.json); without the env var it is a no-op.
func TestWriteKnowledgeBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_KNOWLEDGE_JSON")
	if out == "" {
		t.Skip("set BENCH_KNOWLEDGE_JSON=<file> to record knowledge benchmarks (make bench)")
	}
	jsonPath, binPath, err := knowledgeBenchPaths()
	if err != nil {
		t.Fatal(err)
	}
	jinfo, err := os.Stat(jsonPath)
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

	jres := testing.Benchmark(func(b *testing.B) { benchKnowledgeLoad(b, jsonPath) })
	bres := testing.Benchmark(func(b *testing.B) { benchKnowledgeLoad(b, binPath) })

	opts := benchOptions(ast.Python)
	file := knowledgeBenchFile{
		CPUs: runtime.NumCPU(),
		Corpus: fmt.Sprintf("python synthetic, %d repos x %d files",
			opts.Corpus.Repos, opts.Corpus.FilesPerRepo),
		Patterns:   len(k.Patterns),
		Pairs:      k.Pairs.Len(),
		Classifier: k.Classifier != nil,

		JSONBytes:   jinfo.Size(),
		BinaryBytes: binfo.Size(),
		SizeRatio:   float64(jinfo.Size()) / float64(binfo.Size()),

		JSONLoadNs:   jres.NsPerOp(),
		BinaryLoadNs: bres.NsPerOp(),
		LoadSpeedup:  float64(jres.NsPerOp()) / float64(bres.NsPerOp()),
		JSONAllocs:   jres.AllocsPerOp(),
		BinaryAllocs: bres.AllocsPerOp(),

		FormatVersion: knowledge.Version,
	}
	if file.SizeRatio < 1.5 {
		t.Errorf("binary artifact only %.2fx smaller than JSON (want >= 1.5x)", file.SizeRatio)
	}
	if file.LoadSpeedup < 1 {
		t.Errorf("binary load slower than JSON (%.2fx)", file.LoadSpeedup)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: binary %.1fx smaller and %.1fx faster to load than JSON",
		out, file.SizeRatio, file.LoadSpeedup)
}
