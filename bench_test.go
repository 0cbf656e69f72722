// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index), plus the
// ablation benches of DESIGN.md §6 and micro-benchmarks of the hot
// substrates. Run with:
//
//	go test -bench=. -benchmem
package namer

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"namer/internal/ast"
	"namer/internal/astplus"
	"namer/internal/core"
	"namer/internal/corpus"
	"namer/internal/driver"
	"namer/internal/eval"
	"namer/internal/fptree"
	"namer/internal/golang"
	"namer/internal/javalang"
	"namer/internal/mining"
	"namer/internal/ml"
	"namer/internal/namepath"
	"namer/internal/pattern"
	"namer/internal/pointsto"
	"namer/internal/pylang"
	"namer/internal/samples"
	"namer/internal/subtoken"
	"namer/internal/textutil"
)

// benchOptions returns a small corpus configuration so table benches
// finish quickly while exercising the full pipeline.
func benchOptions(lang ast.Language) eval.Options {
	opts := eval.DefaultOptions(lang)
	opts.Corpus.Repos = 12
	opts.Corpus.FilesPerRepo = 4
	opts.System.Mining.MinPatternCount = opts.Corpus.Repos * opts.Corpus.FilesPerRepo / 3
	opts.TrainSize = 40
	opts.TestSize = 100
	return opts
}

// cached runs share one evaluation environment per language.
var (
	runOnce sync.Once
	runPy   *eval.Run
	runJava *eval.Run
)

func sharedRuns() (*eval.Run, *eval.Run) {
	runOnce.Do(func() {
		runPy = eval.NewRun(benchOptions(ast.Python))
		runJava = eval.NewRun(benchOptions(ast.Java))
	})
	return runPy, runJava
}

// --- Figure 2: the overview pipeline ---

const figure2Src = `class TestPicture(TestCase):
    def test_angle_picture(self):
        rotated_picture_name = "IMG_2259.jpg"
        for picture in self.slide.pictures:
            if picture.relative_path == rotated_picture_name:
                picture = self.slide.pictures[0]
                self.assertTrue(picture.rotate_angle, 90)
                break
`

func BenchmarkFigure2Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		root, err := pylang.Parse(figure2Src)
		if err != nil {
			b.Fatal(err)
		}
		res := pointsto.AnalyzeFile(root, ast.Python)
		for _, stmt := range ast.Statements(root) {
			plus := astplus.Transform(stmt, res.OriginOf)
			namepath.Extract(plus, 10)
		}
	}
}

// --- Figure 3: FP-tree mining ---

func BenchmarkFigure3FPTree(b *testing.B) {
	txs := [][]int{{1, 2}, {1, 3, 5}, {1, 3, 4}, {1, 3, 4, 6}}
	for i := 0; i < b.N; i++ {
		tree := fptree.New()
		for j := 0; j < 64; j++ {
			tree.Update(txs[j%len(txs)])
		}
		count := 0
		tree.Walk(func(n *fptree.Node, stack []int) {
			if n.IsLast {
				count++
			}
		})
		if count != 4 {
			b.Fatalf("patterns = %d", count)
		}
	}
}

// --- Tables 2 and 5: precision and ablations ---

func BenchmarkTable2PythonPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := eval.NewRun(benchOptions(ast.Python))
		rows := run.PrecisionTable()
		if len(rows) != 4 {
			b.Fatal("table shape")
		}
	}
}

func BenchmarkTable5JavaPrecision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := eval.NewRun(benchOptions(ast.Java))
		rows := run.PrecisionTable()
		if len(rows) != 4 {
			b.Fatal("table shape")
		}
	}
}

// --- Table 4: per-pattern-type breakdown ---

func BenchmarkTable4PatternBreakdown(b *testing.B) {
	py, _ := sharedRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := py.PatternBreakdown(100)
		if len(rows) != 2 {
			b.Fatal("breakdown shape")
		}
	}
}

// --- Tables 7 and 8: user study ---

func BenchmarkTable8UserStudy(b *testing.B) {
	py, _ := sharedRuns()
	items := py.UserStudyItems()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.SimulateUserStudy(items, 7, int64(i))
	}
}

// --- Table 9: classifier feature weights ---

func BenchmarkTable9FeatureWeights(b *testing.B) {
	py, _ := sharedRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := py.FeatureWeightTable(); len(rows) != 4 {
			b.Fatal("weight table shape")
		}
	}
}

// --- Tables 10 and 11: neural baselines (includes §5.6 synthetic accuracy) ---

func neuralBenchOptions() eval.NeuralOptions {
	return eval.NeuralOptions{
		Dim: 12, Steps: 1, Layers: 1, Epochs: 1,
		TrainSamples: 60, TestSamples: 30, Seed: 5,
	}
}

func BenchmarkTable10NeuralPython(b *testing.B) {
	py, _ := sharedRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := py.NeuralComparison(neuralBenchOptions(), 20); len(res) != 2 {
			b.Fatal("comparison shape")
		}
	}
}

func BenchmarkTable11NeuralJava(b *testing.B) {
	_, jv := sharedRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := jv.NeuralComparison(neuralBenchOptions(), 20); len(res) != 2 {
			b.Fatal("comparison shape")
		}
	}
}

// --- §5.1: speed of Namer (ms per file, the 20ms/39ms numbers) ---

func BenchmarkAnalyzeFilePython(b *testing.B) {
	c := corpus.Generate(corpus.Config{Lang: ast.Python, Seed: 3, Repos: 1, FilesPerRepo: 1})
	f := c.Repos[0].Files[0]
	sys := core.NewSystem(core.DefaultConfig(ast.Python))
	in := &core.InputFile{Repo: "r", Path: f.Path, Source: f.Source, Root: f.Root}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.ProcessFile(in)
	}
}

func BenchmarkAnalyzeFileJava(b *testing.B) {
	c := corpus.Generate(corpus.Config{Lang: ast.Java, Seed: 3, Repos: 1, FilesPerRepo: 1})
	f := c.Repos[0].Files[0]
	sys := core.NewSystem(core.DefaultConfig(ast.Java))
	in := &core.InputFile{Repo: "r", Path: f.Path, Source: f.Source, Root: f.Root}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.ProcessFile(in)
	}
}

// --- §5.2/§5.3: mining statistics ---

// BenchmarkMinePatterns measures the mining stage itself (pass-1 counting,
// sharded FP-tree growth, pattern generation, pruning) over an already
// processed corpus, for the serial reference path and the all-CPU path.
func BenchmarkMinePatterns(b *testing.B) {
	opts := benchOptions(ast.Python)
	c := corpus.Generate(opts.Corpus)
	files := benchCorpusFiles(c)
	for _, v := range benchScanVariants {
		cfg := opts.System
		cfg.Parallelism = v.parallelism
		sys := core.NewSystem(cfg)
		sys.MinePairs(c.Commits)
		sys.ProcessFiles(files)
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys.MinePatterns()
				if len(sys.Patterns) == 0 {
					b.Fatal("no patterns")
				}
			}
		})
	}
}

// benchCorpusFiles materializes the bench corpus as input files.
func benchCorpusFiles(c *corpus.Corpus) []*core.InputFile {
	var files []*core.InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &core.InputFile{Repo: r.Name, Path: f.Path, Source: f.Source, Root: f.Root})
		}
	}
	return files
}

// benchScanVariants names the serial reference path and the all-CPU
// parallel path; the outputs are asserted byte-identical by
// core.TestParallelPipelineMatchesSerial, so these benches measure pure
// speedup.
var benchScanVariants = []struct {
	name        string
	parallelism int
}{
	{"serial", 1},
	{"parallel", 0},
}

// --- Scan & PruneUncommon: the corpus-scale hot paths ---

func BenchmarkScan(b *testing.B) {
	opts := benchOptions(ast.Python)
	c := corpus.Generate(opts.Corpus)
	files := benchCorpusFiles(c)
	for _, v := range benchScanVariants {
		cfg := opts.System
		cfg.Parallelism = v.parallelism
		sys := core.NewSystem(cfg)
		sys.MinePairs(c.Commits)
		sys.ProcessFiles(files)
		sys.MinePatterns()
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := sys.Scan(); len(res.Violations) == 0 {
					b.Fatal("no violations")
				}
			}
		})
	}
}

func BenchmarkPruneUncommon(b *testing.B) {
	opts := benchOptions(ast.Python)
	c := corpus.Generate(opts.Corpus)
	files := benchCorpusFiles(c)
	sys := core.NewSystem(opts.System)
	sys.MinePairs(c.Commits)
	sys.ProcessFiles(files)
	// Recover an unpruned candidate set by mining with a ratio low enough
	// that PruneUncommon keeps everything.
	mcfg := opts.System.Mining
	mcfg.MinSatisfactionRatio = 1e-9
	var stmts []*pattern.Statement
	for _, ps := range sys.Stmts {
		stmts = append(stmts, ps.PS)
	}
	candidates := mining.MinePatterns(stmts, pattern.Consistency, nil, mcfg)
	if len(candidates) == 0 {
		b.Fatal("no candidate patterns")
	}
	benchPrune(b, "", candidates, stmts)

	// The goroot sample's consistency candidates at the goroot workload's
	// support threshold: the corpus where prune is the largest miner stage.
	gs, ok, reason := samples.Goroot()
	if !ok {
		b.Logf("goroot sample skipped: %s", reason)
		return
	}
	gcfg := core.DefaultConfig(ast.Go)
	gsys := core.NewSystem(gcfg)
	stmts = stmts[:0]
	for _, f := range gs.Files {
		for _, ps := range gsys.ProcessFile(&core.InputFile{Path: f.Path, Source: f.Source, Root: f.Root}) {
			stmts = append(stmts, ps.PS)
		}
	}
	gcfg.Mining.MinPatternCount = 8
	st := mining.BuildShardTree(stmts, pattern.Consistency, nil, mining.CountPaths(stmts, 1), gcfg.Mining)
	benchPrune(b, "goroot/", mining.Grow(st, pattern.Consistency, nil, gcfg.Mining), stmts)
}

// benchPrune times PruneUncommon over the candidates at each scan
// variant's degree, reporting allocations.
func benchPrune(b *testing.B, prefix string, candidates []*pattern.Pattern, stmts []*pattern.Statement) {
	for _, v := range benchScanVariants {
		workers := v.parallelism
		b.Run(prefix+v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := mining.PruneUncommon(candidates, stmts, 0.8, workers); len(out) == 0 {
					b.Fatal("all candidates pruned")
				}
			}
		})
	}
}

// --- BENCH_mining.json: the mining perf trajectory (make bench) ---

// miningBenchRecord is one row of BENCH_mining.json.
type miningBenchRecord struct {
	Name         string `json:"name"`
	NsPerOp      int64  `json:"ns_per_op"`
	AllocsPerOp  int64  `json:"allocs_per_op,omitempty"`
	BytesPerOp   int64  `json:"bytes_per_op,omitempty"`
	TreeNodes    int    `json:"tree_nodes,omitempty"`
	Transactions int    `json:"transactions,omitempty"`

	// Driver-mode rows: shard count and the map/reduce wall split.
	Shards   int   `json:"shards,omitempty"`
	MapNs    int64 `json:"map_ns,omitempty"`
	ReduceNs int64 `json:"reduce_ns,omitempty"`
}

type miningBenchFile struct {
	CPUs    int                 `json:"cpus"`
	Corpus  string              `json:"corpus"`
	Results []miningBenchRecord `json:"results"`
}

// TestWriteMiningBenchJSON records the BenchmarkMinePatterns and
// BenchmarkScan variants into the file named by BENCH_JSON (ns/op,
// allocs/op, FP-tree node count), so the perf trajectory of the mining
// pipeline is tracked commit over commit. `make bench` writes
// BENCH_mining.json; without the env var the test is a no-op.
func TestWriteMiningBenchJSON(t *testing.T) {
	out := os.Getenv("BENCH_JSON")
	if out == "" {
		t.Skip("set BENCH_JSON=<file> to record mining benchmarks (make bench)")
	}
	opts := benchOptions(ast.Python)
	c := corpus.Generate(opts.Corpus)
	files := benchCorpusFiles(c)
	file := miningBenchFile{
		CPUs: runtime.NumCPU(),
		Corpus: fmt.Sprintf("python synthetic, %d repos x %d files",
			opts.Corpus.Repos, opts.Corpus.FilesPerRepo),
	}
	for _, v := range benchScanVariants {
		cfg := opts.System
		cfg.Parallelism = v.parallelism
		sys := core.NewSystem(cfg)
		sys.MinePairs(c.Commits)
		sys.ProcessFiles(files)
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys.MinePatterns()
			}
		})
		nodes, txs := 0, 0
		for _, ms := range sys.MiningStats {
			nodes += ms.TreeNodes
			txs += ms.Transactions
		}
		file.Results = append(file.Results, miningBenchRecord{
			Name:         "MinePatterns/" + v.name,
			NsPerOp:      res.NsPerOp(),
			AllocsPerOp:  res.AllocsPerOp(),
			BytesPerOp:   res.AllocedBytesPerOp(),
			TreeNodes:    nodes,
			Transactions: txs,
		})
		scan := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys.Scan()
			}
		})
		file.Results = append(file.Results, miningBenchRecord{
			Name:        "Scan/" + v.name,
			NsPerOp:     scan.NsPerOp(),
			AllocsPerOp: scan.AllocsPerOp(),
			BytesPerOp:  scan.AllocedBytesPerOp(),
		})
	}
	// Driver-mode rows: the same corpus mined through the map/reduce
	// driver, recording end-to-end wall clock and the merged shard-tree
	// shapes so the distributed path's trajectory is tracked alongside
	// the in-process one.
	corpusDir := t.TempDir()
	if err := c.WriteTo(corpusDir); err != nil {
		t.Fatal(err)
	}
	shardCounts := []int{2}
	if n := runtime.NumCPU(); n != 2 {
		shardCounts = append(shardCounts, n)
	}
	for _, nshards := range shardCounts {
		cfg := opts.System
		cfg.Mining.MinPatternCount = 0 // auto-scale post-map, like namer-mine -driver
		start := time.Now()
		_, stats, err := driver.Run(context.Background(), driver.Options{
			CorpusDir:     corpusDir,
			Config:        cfg,
			Shards:        nshards,
			CheckpointDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		nodes, txs := 0, 0
		for _, ms := range stats.Mining {
			nodes += ms.TreeNodes
			txs += ms.Transactions
		}
		file.Results = append(file.Results, miningBenchRecord{
			Name:         fmt.Sprintf("Driver/shards=%d", nshards),
			NsPerOp:      wall.Nanoseconds(),
			TreeNodes:    nodes,
			Transactions: txs,
			Shards:       stats.Shards,
			MapNs:        stats.MapWall.Nanoseconds(),
			ReduceNs:     stats.ReduceWall.Nanoseconds(),
		})
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d results)", out, len(file.Results))
}

// --- §5.1/§5.2: cross-validation and model selection ---

func BenchmarkCrossValidation(b *testing.B) {
	py, _ := sharedRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		py.CrossValidation(5)
	}
}

func BenchmarkModelSelection(b *testing.B) {
	py, _ := sharedRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, _ := py.CrossValidation(3)
		if best == "" {
			b.Fatal("no model selected")
		}
	}
}

// --- Ablation benches (DESIGN.md §6) ---

func BenchmarkAblationNoClassifier(b *testing.B) {
	opts := benchOptions(ast.Python)
	for i := 0; i < b.N; i++ {
		run := eval.NewRun(opts)
		// Raw pattern matching: every violation is a report (w/o C).
		n := 0
		for range run.Violations {
			n++
		}
		if n == 0 {
			b.Fatal("no violations")
		}
	}
}

func BenchmarkAblationNoAnalysis(b *testing.B) {
	opts := benchOptions(ast.Python)
	opts.System.UseAnalysis = false
	for i := 0; i < b.N; i++ {
		run := eval.NewRun(opts)
		_ = run.Violations
	}
}

func BenchmarkPointsToKSweep(b *testing.B) {
	c := corpus.Generate(corpus.Config{Lang: ast.Python, Seed: 5, Repos: 1, FilesPerRepo: 2})
	f := c.Repos[0].Files[0]
	for _, k := range []int{0, 1, 2, 5} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pointsto.Analyze(f.Root, ast.Python, pointsto.Options{K: k, MaxAvgContexts: 8})
			}
		})
	}
}

func BenchmarkMiningThresholdSweep(b *testing.B) {
	opts := benchOptions(ast.Python)
	c := corpus.Generate(opts.Corpus)
	var files []*core.InputFile
	for _, r := range c.Repos {
		for _, f := range r.Files {
			files = append(files, &core.InputFile{Repo: r.Name, Path: f.Path, Source: f.Source, Root: f.Root})
		}
	}
	for _, threshold := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("minCount=%d", threshold), func(b *testing.B) {
			cfg := opts.System
			cfg.Mining.MinPatternCount = threshold
			for i := 0; i < b.N; i++ {
				sys := core.NewSystem(cfg)
				sys.MinePairs(c.Commits)
				sys.ProcessFiles(files)
				sys.MinePatterns()
			}
		})
	}
}

func BenchmarkFeatureLevelAblation(b *testing.B) {
	// Train the classifier with features masked to one statistical level
	// at a time (motivates Table 9's multi-level design).
	py, _ := sharedRuns()
	var X [][]float64
	var y []int
	for _, l := range py.Violations {
		v := py.Sys.FeatureVectorIn(py.Stats, l.V)
		X = append(X, v)
		if l.IsIssue() {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	masks := map[string][]int{
		"file-only": {0, 1, 3, 6, 9, 13, 14, 15, 16},
		"repo-only": {0, 2, 4, 7, 10, 13, 14, 15, 16},
		"all":       nil,
	}
	for name, keep := range masks {
		b.Run(name, func(b *testing.B) {
			Z := X
			if keep != nil {
				Z = make([][]float64, len(X))
				for i, row := range X {
					masked := make([]float64, len(keep))
					for j, idx := range keep {
						masked[j] = row[idx]
					}
					Z[i] = masked
				}
			}
			for i := 0; i < b.N; i++ {
				p := &ml.Pipeline{NewModel: func() ml.Classifier { return &ml.LinearSVM{Epochs: 50, Seed: 9} }}
				p.Fit(Z, y)
			}
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkPythonParse(b *testing.B) {
	c := corpus.Generate(corpus.Config{Lang: ast.Python, Seed: 7, Repos: 1, FilesPerRepo: 1})
	src := c.Repos[0].Files[0].Source
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := pylang.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJavaParse(b *testing.B) {
	c := corpus.Generate(corpus.Config{Lang: ast.Java, Seed: 7, Repos: 1, FilesPerRepo: 1})
	src := c.Repos[0].Files[0].Source
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := javalang.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubtokenSplit(b *testing.B) {
	names := []string{"assertTrue", "rotated_picture_name", "HTTPServerResponse", "x"}
	for i := 0; i < b.N; i++ {
		for _, n := range names {
			subtoken.Split(n)
		}
	}
}

func BenchmarkEditDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		textutil.EditDistance("progDialog", "progressDialog")
	}
}

// --- §5.6 synthetic accuracy (standalone alias for the DESIGN.md index) ---

func BenchmarkSyntheticAccuracy(b *testing.B) {
	py, _ := sharedRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := py.NeuralComparison(neuralBenchOptions(), 20)
		if len(res) != 2 || res[0].Synthetic.Classification == 0 {
			b.Fatal("synthetic accuracy not measured")
		}
	}
}

// --- Go front end (the §5.1 genericity claim) ---

func BenchmarkGoParse(b *testing.B) {
	data, err := os.ReadFile("internal/golang/golang.go")
	if err != nil {
		b.Fatal(err)
	}
	src := string(data)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := golang.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelfScanFile(b *testing.B) {
	data, err := os.ReadFile("internal/golang/golang.go")
	if err != nil {
		b.Fatal(err)
	}
	src := string(data)
	root, err := golang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	sys := core.NewSystem(core.DefaultConfig(ast.Go))
	in := &core.InputFile{Repo: "self", Path: "golang.go", Source: src, Root: root}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.ProcessFile(in)
	}
}
