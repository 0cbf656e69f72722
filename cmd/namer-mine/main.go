// Command namer-mine runs the unsupervised half of the paper's recipe
// over a corpus directory: it mines confusing word pairs from the commit
// history (§3.2) and name patterns from the code (§3.3, Algorithms 1–2),
// writing the result as a knowledge file for cmd/namer and
// cmd/namer-train. The -out extension picks the encoding: a .json path
// writes the pretty-printed debug format, anything else the checksummed
// flat binary format that namer, namer-train, and namer-serve load.
//
// Long corpus runs are observable three ways: periodic progress lines on
// stderr (files analyzed, statements, moving rate, ETA; FP-tree shapes
// as each pass completes; records under -log-format json, which keeps
// every stderr line a JSON object); -trace out.json, which records the whole
// run as a span tree and writes it in the Chrome trace-event format —
// load it in chrome://tracing or https://ui.perfetto.dev to see where
// the wall time went, stage by stage and file by file; and, in driver
// mode, -status-addr, a live HTTP status server (/status per-shard
// states, /metrics Prometheus text, /debug/pprof, /debug/traces).
// Diagnostics go through a structured logger (-log-level, -log-format).
//
// -driver switches to the distributed map/reduce miner: the corpus is
// split into -shards repo shards, map workers run as in-process
// goroutines (or as spawned `namer-mine -worker` child processes with
// -worker-procs N), and every shard's intermediate product is a
// CRC-checked checkpoint under -checkpoints, so a killed run resumes
// from where it stopped (-fresh discards the checkpoints instead). The
// mined knowledge is byte-identical to a non-driver run at any shard or
// worker count. With -trace, spawned workers record their spans locally
// and ship them back over the job protocol, so the written trace shows
// every worker process as its own lane keyed by real PID.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"namer/internal/ast"
	"namer/internal/buildinfo"
	"namer/internal/core"
	"namer/internal/corpus"
	"namer/internal/driver"
	"namer/internal/knowledge"
	"namer/internal/obs"
	"namer/internal/prof"
)

func main() {
	lang := flag.String("lang", "python", "language: python, java, or go")
	dir := flag.String("dir", "corpus", "corpus directory (repositories as subdirectories)")
	out := flag.String("out", "knowledge.bin",
		"output knowledge file (flat binary; use a .json extension for the debug format)")
	minPatternCount := flag.Int("min-pattern-count", 0,
		"FP-tree support threshold (0 = scale with corpus size)")
	minPairCount := flag.Int("min-pair-count", 3, "confusing-pair support threshold")
	noAnalysis := flag.Bool("no-analysis", false, "disable the points-to analyses (the w/o A ablation)")
	parallelism := flag.Int("parallelism", 0,
		"worker count for file processing and mining (0 = all CPUs, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	traceOut := flag.String("trace", "",
		"write a Chrome trace-event JSON of the full mining run to this file (chrome://tracing, Perfetto)")
	driverMode := flag.Bool("driver", false,
		"run the distributed map/reduce miner with per-shard checkpoints (resumable)")
	shards := flag.Int("shards", 0, "driver mode: corpus shard count (0 = all CPUs)")
	workerProcs := flag.Int("worker-procs", 0,
		"driver mode: run map workers as this many spawned namer-mine -worker child processes (0 = in-process goroutines)")
	checkpoints := flag.String("checkpoints", "",
		"driver mode: checkpoint directory (default <out>.ckpt)")
	fresh := flag.Bool("fresh", false, "driver mode: discard existing checkpoints instead of resuming")
	workerMode := flag.Bool("worker", false,
		"serve map jobs over stdin/stdout JSON lines (spawned by -driver -worker-procs; not for direct use)")
	statusAddr := flag.String("status-addr", "",
		"driver mode: serve live mining status on this address (/status, /metrics, /debug/pprof, /debug/traces)")
	statusReadyFile := flag.String("status-ready-file", "",
		"driver mode: write the bound status address to this file once listening (for scripts with -status-addr :0)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "log line format: text or json")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("namer-mine", buildinfo.String())
		return
	}
	lg, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	// Under -log-format json every stderr line is one JSON object:
	// progress reports become records, and the -trace span tree, a text
	// view, goes to stdout with the other results.
	newProgress := func(label, unit string) *obs.Progress {
		return obs.NewProgress(os.Stderr, label, unit)
	}
	var treeOut io.Writer = os.Stderr
	if strings.EqualFold(*logFormat, "json") {
		newProgress = func(label, unit string) *obs.Progress {
			return obs.NewProgressLog(lg, label, unit)
		}
		treeOut = os.Stdout
	}
	if *workerMode {
		if err := driver.ServeWorker(os.Stdin, os.Stdout, lg); err != nil {
			fatal(err)
		}
		return
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	// With -trace, every pipeline stage below runs under a span tree
	// rooted at this trace; without it, ctx carries no trace and the
	// span calls in core/mining are free no-ops.
	ctx := context.Background()
	var tr *obs.Trace
	if *traceOut != "" {
		ctx, tr = obs.NewTrace(ctx, "namer-mine", "")
		// Corpus runs record one span per file; give them room.
		tr.SetMaxSpans(1 << 20)
	}

	l, err := ast.ParseLanguage(*lang)
	if err != nil {
		fatal(err)
	}

	if *driverMode {
		cfg := core.DefaultConfig(l)
		cfg.UseAnalysis = !*noAnalysis
		cfg.MinPairCount = *minPairCount
		cfg.Parallelism = *parallelism
		// 0 lets the driver auto-scale the threshold once the map round
		// has counted the parsed files, matching the serial path.
		cfg.Mining.MinPatternCount = *minPatternCount
		ckdir := *checkpoints
		if ckdir == "" {
			ckdir = *out + ".ckpt"
		}
		opts := driver.Options{
			CorpusDir:     *dir,
			Config:        cfg,
			Shards:        *shards,
			CheckpointDir: ckdir,
			Fresh:         *fresh,
			Workers:       *parallelism,
			Progress:      newProgress,
			Log:           lg,
		}
		if *workerProcs > 0 {
			exe, err := os.Executable()
			if err != nil {
				fatal(err)
			}
			// Workers inherit the log flags so their (captured) stderr
			// carries the same level and the driver re-tags it per PID.
			opts.WorkerCommand = []string{exe, "-worker",
				"-log-level", *logLevel, "-log-format", *logFormat}
			opts.Workers = *workerProcs
		}
		if *statusAddr != "" {
			opts.Monitor = driver.NewMonitor()
			opts.Recorder = obs.NewFlightRecorder(32)
			st, err := driver.StartStatus(*statusAddr, opts.Monitor, opts.Recorder, lg)
			if err != nil {
				fatal(err)
			}
			defer st.Close()
			if *statusReadyFile != "" {
				if err := os.WriteFile(*statusReadyFile, []byte(st.Addr()+"\n"), 0o644); err != nil {
					fatal(err)
				}
			}
		}
		k, stats, err := driver.Run(ctx, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("driver: %d shards (%d stmts + %d trees checkpoints reused), %d files, %d statements\n",
			stats.Shards, stats.StmtsReused, stats.TreesReused, stats.FilesParsed, stats.Statements)
		for _, ms := range stats.Mining {
			fmt.Printf("  %v FP tree: %d nodes over %d transactions\n", ms.Type, ms.TreeNodes, ms.Transactions)
		}
		fmt.Printf("driver: map %v, reduce %v\n",
			stats.MapWall.Round(time.Millisecond), stats.ReduceWall.Round(time.Millisecond))
		printUsage(stats)
		if err := knowledge.Save(*out, k); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
		finishTrace(tr, *traceOut, treeOut)
		return
	}

	_, sp := obs.StartSpan(ctx, "load_corpus")
	files, errs := core.LoadDirectory(*dir, l)
	sp.SetAttrInt("files", len(files))
	sp.End()
	for _, e := range errs {
		lg.Warn("load", "err", e)
	}
	if len(files) == 0 {
		fatal(fmt.Errorf("no %s files under %s", *lang, *dir))
	}

	cfg := core.DefaultConfig(l)
	cfg.UseAnalysis = !*noAnalysis
	cfg.MinPairCount = *minPairCount
	cfg.Parallelism = *parallelism
	if *minPatternCount > 0 {
		cfg.Mining.MinPatternCount = *minPatternCount
	} else {
		cfg.Mining.MinPatternCount = len(files) / 3
		if cfg.Mining.MinPatternCount < 5 {
			cfg.Mining.MinPatternCount = 5
		}
	}
	cfg.Progress = newProgress("analyze", "files").Update
	cfg.Mining.OnTreeBuilt = func(nodes, transactions int) {
		lg.Info("FP tree built", "nodes", nodes, "transactions", transactions)
	}

	sys := core.NewSystem(cfg)
	_, sp = obs.StartSpan(ctx, "mine_pairs")
	if pairs, err := corpus.ReadCommits(filepath.Join(*dir, "commits")); err == nil {
		commits, skipped := corpus.ParseCommitSources(l, pairs)
		if skipped > 0 {
			lg.Warn("some commit pairs did not parse",
				"skipped", skipped, "total", len(pairs))
		}
		sys.MinePairs(commits)
		fmt.Printf("mined %d confusing word pairs from %d commits\n", sys.Pairs.Len(), len(pairs))
	} else {
		sys.MinePairs(nil)
		lg.Warn("no commit history found; confusing-word patterns disabled")
	}
	sp.End()

	start := time.Now()
	for _, e := range sys.ProcessFilesCtx(ctx, files) {
		lg.Warn("analyze", "err", e)
	}
	fmt.Printf("analyzed %d files, %d statements in %v (%.1f ms/file)\n",
		len(files), len(sys.Stmts), time.Since(start).Round(time.Millisecond),
		float64(time.Since(start).Milliseconds())/float64(len(files)))

	start = time.Now()
	sys.MinePatternsCtx(ctx)
	fmt.Printf("mined %d name patterns in %v\n", len(sys.Patterns), time.Since(start).Round(time.Millisecond))
	for _, ms := range sys.MiningStats {
		fmt.Printf("  %v FP tree: %d nodes over %d transactions\n", ms.Type, ms.TreeNodes, ms.Transactions)
	}

	_, sp = obs.StartSpan(ctx, "save_knowledge")
	k, err := sys.ExportKnowledge()
	if err == nil {
		err = knowledge.Save(*out, k)
	}
	sp.End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
	finishTrace(tr, *traceOut, treeOut)
}

// printUsage renders the per-shard resource table (and per-worker
// totals) a driver run measured: wall and CPU per shard, peak RSS, and
// allocation volume. Fully-reused shards show 0 jobs.
func printUsage(stats driver.Stats) {
	if len(stats.Usage) == 0 {
		return
	}
	fmt.Printf("driver: per-shard resources:\n")
	fmt.Printf("  %5s %4s %10s %10s %10s %10s\n", "shard", "jobs", "wall", "cpu", "rss", "alloc")
	var wall, cpu time.Duration
	var alloc int64
	for _, u := range stats.Usage {
		wall += u.Wall
		cpu += u.CPU
		alloc += u.AllocBytes
		fmt.Printf("  %5d %4d %10v %10v %8dKB %8.1fMB\n",
			u.Shard, u.Jobs, u.Wall.Round(time.Millisecond), u.CPU.Round(time.Millisecond),
			u.MaxRSSKB, float64(u.AllocBytes)/(1<<20))
	}
	fmt.Printf("  total      %10v %10v %19.1fMB\n",
		wall.Round(time.Millisecond), cpu.Round(time.Millisecond), float64(alloc)/(1<<20))
	for _, w := range stats.Workers {
		fmt.Printf("driver: worker pid=%d cpu=%v maxrss=%dKB\n",
			w.PID, w.CPU.Round(time.Millisecond), w.MaxRSSKB)
	}
}

// finishTrace writes the Chrome trace to traceOut and the span tree to
// treeOut.
func finishTrace(tr *obs.Trace, traceOut string, treeOut io.Writer) {
	if tr == nil {
		return
	}
	tr.Finish()
	f, err := os.Create(traceOut)
	if err != nil {
		fatal(err)
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	tr.WriteTree(treeOut)
	spans, pids := tr.ExternalSpanCount()
	if pids > 0 {
		fmt.Printf("wrote trace %s (%d spans + %d worker spans from %d processes, %v; open in chrome://tracing)\n",
			traceOut, tr.SpanCount(), spans, pids, tr.Duration().Round(time.Millisecond))
	} else {
		fmt.Printf("wrote trace %s (%d spans, %v; open in chrome://tracing)\n",
			traceOut, tr.SpanCount(), tr.Duration().Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "namer-mine:", err)
	os.Exit(1)
}
