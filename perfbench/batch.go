package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"namer/internal/ast"
	"namer/internal/confusion"
	"namer/internal/core"
	"namer/internal/corpus"
	"namer/internal/driver"
	"namer/internal/knowledge"
)

// Batch phase repetition. One corpus load makes the files and warms up;
// one mine/scan/driver/resume round makes the knowledge. The serve phases
// then run in chunks, and after each chunk come set-up loads and batch
// rounds, so every metric's samples are spread over the whole run and one
// slow stretch of the host shifts only part of them. After a chunk, loads
// repeat, at least setUpsPerChunk of them, until setupShare/chunks of the
// budget is spent, and rounds, at least one, until batchShare/chunks is.
// Every timed call starts from a collected heap, so the previous call's
// garbage is not charged to it. Each batch metric and setup_s report the
// median sample.
const (
	chunks         = 3
	setUpsPerChunk = 3
	setupShare     = 0.03
	batchShare     = 0.15
)

// batch is the state of the batch phases.
type batch struct {
	corpusDir string
	files     []*core.InputFile
	cfg       core.Config
	commits   []confusion.Commit
	mined     string // knowledge file of the single-process mine
	knowledge string // knowledge file the server loads
	ref       []byte // the first mine's knowledge bytes
	ckptDir   string
	workerCmd []string

	violations           int
	setup                []float64
	mine, scan, drv, res []float64
	driver               driver.Stats // last fresh driver run
	resume               driver.Stats // last resumed driver run
}

// execute runs every phase of workload w.
func (r *run) execute(w workload) error {
	in, err := w.prepare(r)
	if err != nil {
		return err
	}
	b, err := r.setUp(w, in)
	if err != nil {
		return err
	}
	if err := r.round(b); err != nil {
		return err
	}
	b.knowledge = b.mined
	if w.train {
		b.knowledge = filepath.Join(r.work, "trained.bin")
		cmd := exec.Command(filepath.Join(r.bin, "namer-train"), "-lang", w.lang.String(),
			"-dir", in.corpusDir, "-knowledge", b.mined, "-out", b.knowledge, "-log-level", "error")
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("namer-train: %v\n%s", err, out)
		}
	}
	if err := r.runServe(w, in, b); err != nil {
		return err
	}
	logf("rounds: mine %.3f, scan %.3f, driver %.3f, resume %.3f", b.mine, b.scan, b.drv, b.res)
	r.report("setup_s", "s", median(b.setup), len(b.setup))
	r.report("mine_s", "s", median(b.mine), len(b.mine))
	r.report("scan_s", "s", median(b.scan), len(b.scan))
	r.report("driver_s", "s", median(b.drv), len(b.drv))
	r.report("resume_s", "s", median(b.res), len(b.res))
	r.report("peak_rss_mb", "MB", selfPeakRSSMB(), 1)
	if r.traced {
		return r.traceLayers(w, in, b)
	}
	return nil
}

// setUp loads the corpus once, untimed, as a warm-up of set-up, and
// fixes the mining configuration.
func (r *run) setUp(w workload, in *inputs) (*batch, error) {
	b := &batch{
		corpusDir: in.corpusDir,
		cfg:       core.DefaultConfig(w.lang),
		mined:     filepath.Join(r.work, "mined.bin"),
		ckptDir:   filepath.Join(r.work, "ckpt"),
		workerCmd: []string{filepath.Join(r.bin, "namer-mine"), "-worker", "-log-level", "error"},
	}
	var errs []error
	b.files, errs = core.LoadDirectory(in.corpusDir, w.lang)
	r.op(len(b.files) > 0, "load %s: %d files, %d errors", in.corpusDir, len(b.files), len(errs))
	if len(b.files) == 0 {
		return nil, fmt.Errorf("no files loaded from %s", in.corpusDir)
	}
	logf("corpus: %d files parsed", len(b.files))

	b.cfg.Mining.MinPatternCount = w.minPatternCount
	if b.cfg.Mining.MinPatternCount == 0 {
		b.cfg.Mining.MinPatternCount = max(len(b.files)/3, 5)
	}
	if pairs, err := corpus.ReadCommits(filepath.Join(in.corpusDir, "commits")); err == nil {
		b.commits, _ = corpus.ParseCommitSources(w.lang, pairs)
	}
	return b, nil
}

// round runs single-process mining, batch scanning, a fresh 2-shard
// driver run and a resumed one. Every knowledge file must be
// byte-identical to the first mine's.
func (r *run) round(b *batch) error {
	n := len(b.mine)
	// mine: ProcessFiles, MinePatterns, save knowledge.
	var mineErr error
	runtime.GC()
	d := timeIt(func() {
		sys := core.NewSystem(b.cfg)
		sys.MinePairs(b.commits)
		if errs := sys.ProcessFiles(b.files); len(errs) > 0 {
			mineErr = errs[0]
		}
		sys.MinePatterns()
		if mineErr == nil {
			mineErr = sys.SaveKnowledge(b.mined)
		}
	})
	b.mine = append(b.mine, secs(d))
	r.op(mineErr == nil, "mine: %v", mineErr)
	data, err := os.ReadFile(b.mined)
	if err != nil {
		return err
	}
	if b.ref == nil {
		b.ref = data
	} else {
		r.check(bytes.Equal(b.ref, data), "mine round %d: knowledge differs from round 0", n)
	}

	// scan: fresh knowledge load, then ScanFiles over every file (the
	// namer -all path).
	var sr *core.ScanResult
	var scanErr error
	runtime.GC()
	d = timeIt(func() {
		sys := core.NewSystem(b.cfg)
		if scanErr = sys.LoadKnowledge(b.mined); scanErr == nil {
			sr = sys.ScanFiles(b.files)
		}
	})
	b.scan = append(b.scan, secs(d))
	r.op(scanErr == nil && len(sr.Errors) == 0, "scan: %v", scanErr)
	if sr != nil {
		if n == 0 {
			b.violations = len(sr.Violations)
		}
		r.check(len(sr.Violations) == b.violations, "scan round %d: %d violations, round 0 had %d",
			n, len(sr.Violations), b.violations)
	}

	// driver: 2 shards, 2 worker subprocesses, fresh checkpoints; resume:
	// the same run again, every checkpoint valid.
	for _, fresh := range []bool{true, false} {
		var art *knowledge.Artifact
		var st driver.Stats
		var err error
		runtime.GC()
		d := timeIt(func() {
			art, st, err = driver.Run(context.Background(), driver.Options{
				CorpusDir:     b.corpusDir,
				Config:        b.cfg,
				Shards:        2,
				CheckpointDir: b.ckptDir,
				Fresh:         fresh,
				WorkerCommand: b.workerCmd,
				Workers:       2,
			})
		})
		r.op(err == nil, "driver (fresh=%t): %v", fresh, err)
		if err != nil {
			continue
		}
		enc, err := knowledge.EncodeBinary(art)
		r.check(err == nil && bytes.Equal(enc, b.ref),
			"driver (fresh=%t) knowledge differs from the single-process mine", fresh)
		if fresh {
			b.drv = append(b.drv, secs(d))
			b.driver = st
		} else {
			b.res = append(b.res, secs(d))
			b.resume = st
			r.check(st.StmtsReused == st.Shards && st.TreesReused == st.Shards,
				"resume reused %d+%d of %d shard checkpoints", st.StmtsReused, st.TreesReused, st.Shards)
		}
	}
	return nil
}

// loads times set-up (walk, read, parse) for one chunk's share of the
// budget, at least setUpsPerChunk times. Every load must give as many
// files as the first.
func (r *run) loads(b *batch) {
	deadline := time.Now().Add(time.Duration(setupShare / chunks * r.seconds * float64(time.Second)))
	for i := 0; i < setUpsPerChunk || time.Now().Before(deadline); i++ {
		var files []*core.InputFile
		var errs []error
		runtime.GC()
		d := timeIt(func() { files, errs = core.LoadDirectory(b.corpusDir, b.cfg.Lang) })
		b.setup = append(b.setup, secs(d))
		r.check(len(files) == len(b.files), "load %s: %d files (%d errors), the first load had %d",
			b.corpusDir, len(files), len(errs), len(b.files))
	}
}

// rounds runs batch rounds for one chunk's share of the budget, at least
// one.
func (r *run) rounds(b *batch) error {
	deadline := time.Now().Add(time.Duration(batchShare / chunks * r.seconds * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := r.round(b); err != nil {
			return err
		}
	}
	return nil
}

// selfPeakRSSMB is this process's peak resident set.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// childPeakRSSMB is an exited child's peak resident set.
func childPeakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// referenceSystem loads knowledge the way namer-serve does, for checking
// the server's answers in-process.
func referenceSystem(path string) (*core.System, error) {
	sys := core.NewSystem(core.DefaultConfig(ast.Python))
	if err := sys.LoadKnowledge(path); err != nil {
		return nil, err
	}
	return sys, nil
}
