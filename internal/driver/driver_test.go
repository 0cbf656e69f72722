package driver

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"namer/internal/ast"
	"namer/internal/core"
	"namer/internal/corpus"
	"namer/internal/knowledge"
	"namer/internal/obs"
)

// TestMain doubles as the worker entry point for the subprocess tests:
// re-executing the test binary with NAMER_DRIVER_WORKER=1 drops straight
// into the ServeWorker loop, the same way namer-mine -worker does.
func TestMain(m *testing.M) {
	if os.Getenv("NAMER_DRIVER_WORKER") == "1" {
		if err := ServeWorker(os.Stdin, os.Stdout, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// corpusOnce writes one shared test corpus and computes the
// single-process reference knowledge bytes the way cmd/namer-mine would.
var corpusOnce sync.Once
var corpusDir string
var referenceBytes []byte
var referenceFiles int

func testCorpus(t *testing.T) (string, []byte) {
	corpusOnce.Do(func() {
		dir, err := os.MkdirTemp("", "driver-corpus-*")
		if err != nil {
			panic(err)
		}
		ccfg := corpus.DefaultConfig(ast.Python)
		ccfg.Repos = 12
		ccfg.FilesPerRepo = 3
		ccfg.IssueRate = 0.08
		if err := corpus.Generate(ccfg).WriteTo(dir); err != nil {
			panic(err)
		}
		corpusDir = dir
		referenceBytes = singleProcessMine(dir)
	})
	t.Cleanup(func() {}) // corpus is shared; removed by the OS tempdir sweep
	return corpusDir, referenceBytes
}

// singleProcessMine mirrors cmd/namer-mine's serial pipeline exactly:
// load, mine pairs, process, mine patterns, export.
func singleProcessMine(dir string) []byte {
	files, errs := core.LoadDirectory(dir, ast.Python)
	if len(errs) > 0 {
		panic(fmt.Sprintf("load errors: %v", errs))
	}
	referenceFiles = len(files)
	cfg := core.DefaultConfig(ast.Python)
	cfg.Mining.MinPatternCount = len(files) / 3
	if cfg.Mining.MinPatternCount < 5 {
		cfg.Mining.MinPatternCount = 5
	}
	sys := core.NewSystem(cfg)
	pairsSrc, err := corpus.ReadCommits(filepath.Join(dir, "commits"))
	if err != nil {
		panic(err)
	}
	commits, _ := corpus.ParseCommitSources(ast.Python, pairsSrc)
	sys.MinePairs(commits)
	sys.ProcessFiles(files)
	sys.MinePatterns()
	if len(sys.Patterns) == 0 {
		panic("reference mine produced no patterns")
	}
	k, err := sys.ExportKnowledge()
	if err != nil {
		panic(err)
	}
	b, err := knowledge.EncodeBinary(k)
	if err != nil {
		panic(err)
	}
	return b
}

func driverOptions(dir, ckdir string, shards int) Options {
	cfg := core.DefaultConfig(ast.Python)
	cfg.Mining.MinPatternCount = 0 // auto-scale post-map, like cmd/namer-mine
	return Options{
		CorpusDir:     dir,
		Config:        cfg,
		Shards:        shards,
		CheckpointDir: ckdir,
	}
}

func encodeArtifact(t *testing.T, a *knowledge.Artifact) []byte {
	t.Helper()
	b, err := knowledge.EncodeBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The tentpole property: driver-mode knowledge is byte-identical to a
// single-process mine for any shard count.
func TestDriverByteIdenticalAcrossShardCounts(t *testing.T) {
	dir, want := testCorpus(t)
	for _, shards := range []int{1, 2, 7, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			art, stats, err := Run(context.Background(), driverOptions(dir, t.TempDir(), shards))
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeArtifact(t, art); !bytes.Equal(got, want) {
				t.Fatalf("driver knowledge differs from single-process mine (%d vs %d bytes)",
					len(got), len(want))
			}
			if stats.FilesParsed != referenceFiles {
				t.Errorf("FilesParsed = %d, want %d", stats.FilesParsed, referenceFiles)
			}
			if stats.StmtsReused != 0 || stats.TreesReused != 0 {
				t.Errorf("fresh run reused checkpoints: %+v", stats)
			}
		})
	}
}

// Killing the driver mid-map and re-running must complete from
// checkpoints with identical output.
func TestDriverKillResume(t *testing.T) {
	dir, want := testCorpus(t)
	for _, killPhase := range []string{"stmts", "trees"} {
		t.Run("kill-"+killPhase, func(t *testing.T) {
			ckdir := t.TempDir()
			opts := driverOptions(dir, ckdir, 5)
			opts.Workers = 1 // deterministic number of completed jobs at the kill
			var completed atomic.Int32
			opts.afterJob = func(phase string, shard int) error {
				if phase == killPhase && completed.Add(1) == 2 {
					return fmt.Errorf("simulated crash after 2 %s jobs", phase)
				}
				return nil
			}
			if _, _, err := Run(context.Background(), opts); err == nil {
				t.Fatal("first run should have crashed")
			}

			opts.afterJob = nil
			art, stats, err := Run(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := encodeArtifact(t, art); !bytes.Equal(got, want) {
				t.Fatal("resumed knowledge differs from single-process mine")
			}
			if stats.StmtsReused < 2 {
				t.Errorf("StmtsReused = %d, want at least the 2 checkpointed shards", stats.StmtsReused)
			}
			if killPhase == "trees" && stats.TreesReused < 2 {
				t.Errorf("TreesReused = %d, want at least 2", stats.TreesReused)
			}
		})
	}
}

// A corrupt checkpoint must be detected and re-run, not trusted.
func TestDriverCorruptCheckpointRerun(t *testing.T) {
	dir, want := testCorpus(t)
	ckdir := t.TempDir()
	opts := driverOptions(dir, ckdir, 4)
	if _, _, err := Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}

	victim := filepath.Join(ckdir, "shard-0001.stmts.ck")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	art, stats, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeArtifact(t, art); !bytes.Equal(got, want) {
		t.Fatal("knowledge after corrupt-checkpoint re-run differs")
	}
	if stats.StmtsReused != 3 {
		t.Errorf("StmtsReused = %d, want 3 (the uncorrupted shards)", stats.StmtsReused)
	}
}

// A second run over a complete checkpoint directory reuses everything.
func TestDriverFullResumeReusesAllShards(t *testing.T) {
	dir, want := testCorpus(t)
	ckdir := t.TempDir()
	opts := driverOptions(dir, ckdir, 3)
	if _, _, err := Run(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	art, stats, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeArtifact(t, art); !bytes.Equal(got, want) {
		t.Fatal("fully-resumed knowledge differs")
	}
	if stats.StmtsReused != 3 || stats.TreesReused != 3 {
		t.Errorf("reuse = %d/%d shards, want 3/3", stats.StmtsReused, stats.TreesReused)
	}
	// Fresh discards the checkpoints and recomputes.
	opts.Fresh = true
	_, stats, err = Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StmtsReused != 0 || stats.TreesReused != 0 {
		t.Errorf("-fresh run reused checkpoints: %+v", stats)
	}
}

// Subprocess workers (the namer-mine -worker path, here via the test
// binary re-exec) must produce the same bytes as in-process goroutines.
func TestDriverSubprocessWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	dir, want := testCorpus(t)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("NAMER_DRIVER_WORKER", "1")
	opts := driverOptions(dir, t.TempDir(), 4)
	opts.WorkerCommand = []string{exe}
	opts.Workers = 2
	art, _, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeArtifact(t, art); !bytes.Equal(got, want) {
		t.Fatal("subprocess-worker knowledge differs from single-process mine")
	}
}

// With a traced context, in-process jobs record their spans in the
// driver's own trace, under the map round that ran them; a resumed run
// records its checkpoint reads and validations there too.
func TestRunTracesInProcessJobs(t *testing.T) {
	dir, want := testCorpus(t)
	ckdir := t.TempDir()
	run := func() (map[string]int, Stats) {
		t.Helper()
		ctx, tr := obs.NewTrace(context.Background(), "mine", "")
		tr.SetMaxSpans(1 << 18)
		art, stats, err := Run(ctx, driverOptions(dir, ckdir, 2))
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		if got := encodeArtifact(t, art); !bytes.Equal(got, want) {
			t.Fatal("traced driver knowledge differs from single-process mine")
		}
		spans := tr.Spans()
		counts := map[string]int{}
		for _, s := range spans {
			counts[s.Name]++
			if s.Name == "resume_validate" {
				for _, a := range s.Attrs {
					if a.Key == "result" {
						counts["resume_validate="+a.Value]++
					}
				}
			}
			if s.Name == "job" {
				if parent := spans[s.Parent].Name; parent != "map_extract" && parent != "map_trees" {
					t.Errorf("job span under %q, want a map round", parent)
				}
			}
		}
		return counts, stats
	}

	fresh, _ := run()
	for name, n := range map[string]int{"job": 4, "load_shard": 2, "build_shard_tree": 4} {
		if fresh[name] != n {
			t.Errorf("fresh run recorded %d %s spans, want %d", fresh[name], name, n)
		}
	}
	if fresh["checkpoint_write"] == 0 {
		t.Error("fresh run recorded no checkpoint_write span")
	}

	resumed, stats := run()
	if stats.StmtsReused != 2 || stats.TreesReused != 2 {
		t.Fatalf("resume reused %d/%d shards, want 2/2", stats.StmtsReused, stats.TreesReused)
	}
	if resumed["resume_validate=reused"] != 4 {
		t.Errorf("resumed run validated %d checkpoints as reused, want 4", resumed["resume_validate=reused"])
	}
	if resumed["checkpoint_read"] == 0 || resumed["job"] != 0 {
		t.Errorf("resumed run: %d checkpoint_read and %d job spans, want some and none",
			resumed["checkpoint_read"], resumed["job"])
	}
}

func TestPlanDeterministicAndRepoAligned(t *testing.T) {
	dir, _ := testCorpus(t)
	p1, err := buildPlan(dir, ast.Python, 5, "fp")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := buildPlan(dir, ast.Python, 5, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if p1.hash != p2.hash || len(p1.shards) != len(p2.shards) {
		t.Fatal("plan is not deterministic")
	}
	seen := map[string]int{}
	var all []string
	for i, s := range p1.shards {
		if len(s.files) == 0 {
			t.Fatalf("shard %d is empty", i)
		}
		for _, f := range s.files {
			all = append(all, f)
			repo := core.RepoOf(f)
			if prev, ok := seen[repo]; ok && prev != i {
				t.Fatalf("repo %s straddles shards %d and %d", repo, prev, i)
			}
			seen[repo] = i
		}
	}
	flat, err := core.ListSources(dir, ast.Python)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) != len(all) {
		t.Fatalf("shards cover %d files, corpus has %d", len(all), len(flat))
	}
	for i := range flat {
		if flat[i] != all[i] {
			t.Fatalf("shard concatenation diverges from walk order at %d: %s vs %s", i, all[i], flat[i])
		}
	}
	// A different fingerprint must change the plan hash (stale-config
	// detection for the counts checkpoint).
	p3, err := buildPlan(dir, ast.Python, 5, "other")
	if err != nil {
		t.Fatal(err)
	}
	if p3.hash == p1.hash {
		t.Fatal("plan hash ignores the config fingerprint")
	}
}
