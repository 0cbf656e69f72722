package driver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"namer/internal/confusion"
	"namer/internal/core"
	"namer/internal/corpus"
	"namer/internal/knowledge"
	"namer/internal/mining"
	"namer/internal/namepath"
	"namer/internal/obs"
	"namer/internal/pattern"
)

// Options configures a map/reduce mining run.
type Options struct {
	// CorpusDir is the corpus root (repositories as subdirectories, plus
	// the commits/ history the confusing-pair miner reads).
	CorpusDir string
	// Config is the full mining configuration, as a single-process run
	// would use (core.DefaultConfig plus flag overrides). A
	// Mining.MinPatternCount of zero auto-scales with the parsed file
	// count after the map phase (mining.AutoMinPatternCount), as
	// cmd/namer-mine does.
	Config core.Config
	// Shards is the number of corpus shards; 0 means NumCPU. Shards in
	// excess of the corpus's repository count are dropped (repos never
	// straddle shards).
	Shards int
	// CheckpointDir holds the per-shard artifacts. It is created if
	// missing; valid artifacts found in it are reused instead of re-run.
	CheckpointDir string
	// Fresh discards any existing checkpoints instead of resuming.
	Fresh bool
	// WorkerCommand, when non-empty, is the argv of a worker subprocess
	// (typically the namer-mine binary with -worker); jobs are then
	// dispatched to spawned children over stdin/stdout JSON lines. Empty
	// runs map jobs as in-process goroutines.
	WorkerCommand []string
	// Workers is the number of concurrent map workers (goroutines or
	// child processes); 0 means min(Shards, NumCPU).
	Workers int
	// Progress, when non-nil, makes the reporter of each map round's
	// cross-worker progress, given the round's label and unit.
	// cmd/namer-mine's reporters write lines to stderr, or records to
	// its logger under -log-format json.
	Progress func(label, unit string) *obs.Progress
	// Log receives the driver's own structured events: resume decisions,
	// stale-checkpoint warnings and per-job completions. Nil logs
	// nothing. Spawned workers write their stderr straight to the
	// driver's stderr.
	Log *slog.Logger

	// afterJob, when non-nil, runs after each completed map job with its
	// phase and shard; a non-nil return aborts the run. Tests use it to
	// simulate a driver killed mid-run.
	afterJob func(phase string, shard int) error
}

// Stats describes what a Run did — how much work ran versus resumed
// from checkpoints, and the shape of the reduce.
type Stats struct {
	Shards       int
	StmtsReused  int // round-1 checkpoints accepted as-is
	TreesReused  int // round-2 checkpoints accepted as-is
	FilesParsed  int
	FilesSkipped int
	Statements   int
	// Mining is the merged FP-tree shape per pattern type, in mined
	// order (consistency, then confusing-word).
	Mining []core.MiningStat
	// MapWall and ReduceWall split the wall clock between the map rounds
	// (including checkpoint validation) and the reduce/fp-growth/prune.
	MapWall    time.Duration
	ReduceWall time.Duration
}

// Run executes the full map/reduce mine and returns the knowledge
// artifact — byte-identical to a single-process mine of the same corpus
// and config at any shard count, worker count, or resume boundary. With a
// traced ctx, the driver's stages and the spans of in-process jobs land
// in that trace; spawned workers are not traced.
func Run(ctx context.Context, opts Options) (*knowledge.Artifact, Stats, error) {
	var stats Stats
	cfg := opts.Config
	if cfg.Mining.MaxPathsPerStatement <= 0 {
		cfg.Mining.MaxPathsPerStatement = 10
	}
	if cfg.Mining.MinSatisfactionRatio <= 0 {
		cfg.Mining.MinSatisfactionRatio = 0.8
	}
	nshards := opts.Shards
	if nshards <= 0 {
		nshards = runtime.NumCPU()
	}

	ctx, dsp := obs.StartSpan(ctx, "driver")
	defer dsp.End()

	_, sp := obs.StartSpan(ctx, "plan")
	fingerprint := fmt.Sprintf("lang=%s analysis=%t minPath=%d maxPaths=%d",
		cfg.Lang, cfg.UseAnalysis, cfg.Mining.MinPathCount, cfg.Mining.MaxPathsPerStatement)
	p, err := buildPlan(opts.CorpusDir, cfg.Lang, nshards, fingerprint)
	sp.End()
	if err != nil {
		return nil, stats, err
	}
	stats.Shards = len(p.shards)
	if opts.CheckpointDir == "" {
		return nil, stats, errors.New("driver: CheckpointDir is required")
	}
	if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
		return nil, stats, err
	}
	if opts.Fresh {
		if err := clearCheckpoints(opts.CheckpointDir); err != nil {
			return nil, stats, err
		}
	}

	r := &runner{opts: opts, cfg: cfg, plan: p, stats: &stats, log: obs.OrDiscard(opts.Log)}
	mapStart := time.Now()

	// Map round 1: statement extraction, checkpointed per shard.
	shardArts, err := r.mapStmts(ctx)
	if err != nil {
		return nil, stats, err
	}

	// Reduce 1: merge the per-shard counts and mine the confusing pairs;
	// the result is itself a checkpoint so round 2 can be re-entered
	// without repeating it.
	countsPayload, counts, err := r.reduceCounts(ctx, shardArts)
	if err != nil {
		return nil, stats, err
	}
	stats.FilesParsed = counts.FilesParsed
	stats.FilesSkipped = counts.FilesSkipped
	stats.Statements = counts.Statements
	if cfg.Mining.MinPatternCount <= 0 {
		cfg.Mining.MinPatternCount = mining.AutoMinPatternCount(counts.FilesParsed)
		r.cfg = cfg
	}

	// Map round 2: per-shard FP subtrees against the global counts.
	treeArts, err := r.mapTrees(ctx, hashBytes(countsPayload))
	if err != nil {
		return nil, stats, err
	}
	stats.MapWall = time.Since(mapStart)

	// Reduce 2: merge, grow, prune, assemble.
	reduceStart := time.Now()
	art, err := r.reduceKnowledge(ctx, shardArts, treeArts, counts)
	stats.ReduceWall = time.Since(reduceStart)
	if err != nil {
		return nil, stats, err
	}
	return art, stats, nil
}

// clearCheckpoints removes this driver's checkpoint files (and nothing
// else) from dir.
func clearCheckpoints(dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "*.ck"))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			return err
		}
	}
	return nil
}

type runner struct {
	opts  Options
	cfg   core.Config
	plan  plan
	stats *Stats
	log   *slog.Logger // opts.Log, or a discarding logger when nil
}

func (r *runner) stmtsPath(shard int) string {
	return filepath.Join(r.opts.CheckpointDir, fmt.Sprintf("shard-%04d.stmts.ck", shard))
}

func (r *runner) treesPath(shard int) string {
	return filepath.Join(r.opts.CheckpointDir, fmt.Sprintf("shard-%04d.trees.ck", shard))
}

func (r *runner) countsPath() string {
	return filepath.Join(r.opts.CheckpointDir, "counts.ck")
}

func (r *runner) workers(jobs int) int {
	w := r.opts.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// mapStmts runs map round 1, reusing any shard checkpoint whose
// embedded corpus-slice hash matches the plan, and returns every shard's
// decoded artifact in shard order.
func (r *runner) mapStmts(ctx context.Context) ([]*shardStmts, error) {
	ctx, sp := obs.StartSpan(ctx, "map_extract")
	defer sp.End()
	arts := make([]*shardStmts, len(r.plan.shards))
	var jobs []Job
	for i, shard := range r.plan.shards {
		if a, err := r.loadStmts(ctx, i); err == nil {
			arts[i] = a
			r.stats.StmtsReused++
			continue
		} else if !errors.Is(err, os.ErrNotExist) {
			r.log.Warn("invalid stmts checkpoint; re-running shard", "shard", i, "err", err)
		}
		jobs = append(jobs, Job{
			Phase:                "stmts",
			Shard:                i,
			OutPath:              r.stmtsPath(i),
			CorpusDir:            r.opts.CorpusDir,
			Lang:                 r.cfg.Lang.String(),
			Files:                shard.files,
			UseAnalysis:          r.cfg.UseAnalysis,
			MaxPathsPerStatement: r.cfg.Mining.MaxPathsPerStatement,
			SliceHash:            shard.hash,
		})
	}
	sp.SetAttrInt("shards", len(r.plan.shards))
	sp.SetAttrInt("reused", r.stats.StmtsReused)
	if len(jobs) > 0 {
		total := 0
		for _, j := range jobs {
			total += len(j.Files)
		}
		if err := r.runJobs(ctx, jobs, "map", "files", total); err != nil {
			return nil, err
		}
		for _, j := range jobs {
			a, err := r.loadStmts(ctx, j.Shard)
			if err != nil {
				return nil, fmt.Errorf("driver: shard %d checkpoint unreadable after map: %w", j.Shard, err)
			}
			arts[j.Shard] = a
		}
	}
	return arts, nil
}

// loadStmts reads and validates one shard's round-1 checkpoint, recorded
// as a resume_validate span when the run is traced.
func (r *runner) loadStmts(ctx context.Context, shard int) (*shardStmts, error) {
	ctx, sp := obs.StartSpan(ctx, "resume_validate")
	sp.SetAttr("phase", "stmts")
	sp.SetAttrInt("shard", shard)
	defer sp.End()
	payload, err := knowledge.ReadCheckpointCtx(ctx, r.stmtsPath(shard), kindStmts)
	if err != nil {
		sp.SetAttr("result", "unreadable")
		return nil, err
	}
	a, err := decodeShardStmts(payload)
	if err != nil {
		sp.SetAttr("result", "corrupt")
		return nil, err
	}
	if a.SliceHash != r.plan.shards[shard].hash {
		sp.SetAttr("result", "stale")
		return nil, fmt.Errorf("stale checkpoint: corpus slice changed")
	}
	sp.SetAttr("result", "reused")
	return a, nil
}

// reduceCounts merges the shards' pass-1 counts, mines the confusing
// word pairs from the commit history, and checkpoints the result. A
// valid existing counts checkpoint for the same plan is reused verbatim
// so resumed runs reach round 2 without re-merging.
func (r *runner) reduceCounts(ctx context.Context, arts []*shardStmts) ([]byte, *reduceCounts, error) {
	ctx, sp := obs.StartSpan(ctx, "reduce_counts")
	defer sp.End()
	if payload, err := knowledge.ReadCheckpointCtx(ctx, r.countsPath(), kindCounts); err == nil {
		if a, err := decodeReduceCounts(payload); err == nil && a.PlanHash == r.plan.hash {
			sp.SetAttrInt("reused", 1)
			r.log.Info("reusing counts checkpoint", "file", "counts.ck")
			return payload, a, nil
		}
	}

	merged := &reduceCounts{PlanHash: r.plan.hash}
	byKey := make(map[string]int32)
	for _, a := range arts {
		merged.FilesParsed += a.FilesParsed
		merged.FilesSkipped += a.FilesSkipped
		merged.Statements += len(a.Stmts)
		for i, p := range a.Paths {
			id, ok := byKey[p.Key()]
			if !ok {
				id = int32(len(merged.Paths))
				byKey[p.Key()] = id
				merged.Paths = append(merged.Paths, p)
				merged.Counts = append(merged.Counts, 0)
			}
			merged.Counts[id] += a.Counts[i]
		}
	}
	// Canonicalize the table order so the counts payload — and therefore
	// the counts hash that round-2 checkpoints embed — is independent of
	// shard layout.
	order := make([]int, len(merged.Paths))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return merged.Paths[order[i]].Key() < merged.Paths[order[j]].Key()
	})
	sortedPaths := make([]namepath.Path, len(order))
	sortedCounts := make([]int, len(order))
	for i, o := range order {
		sortedPaths[i] = merged.Paths[o]
		sortedCounts[i] = merged.Counts[o]
	}
	merged.Paths, merged.Counts = sortedPaths, sortedCounts

	merged.Pairs = r.minePairs()
	sp.SetAttrInt("distinct_paths", len(merged.Paths))
	payload := encodeReduceCounts(merged)
	if err := knowledge.WriteCheckpointCtx(ctx, r.countsPath(), kindCounts, payload); err != nil {
		return nil, nil, err
	}
	return payload, merged, nil
}

// minePairs mirrors cmd/namer-mine's pair mining: read the corpus commit
// history if present, parse the pairs, mine and prune.
func (r *runner) minePairs() *confusion.PairSet {
	var commits []confusion.Commit
	if pairs, err := corpus.ReadCommits(filepath.Join(r.opts.CorpusDir, "commits")); err == nil {
		var skipped int
		commits, skipped = corpus.ParseCommitSources(r.cfg.Lang, pairs)
		if skipped > 0 {
			r.log.Warn("some commit pairs did not parse", "skipped", skipped, "total", len(pairs))
		}
	} else {
		r.log.Warn("no commit history found; confusing-word patterns disabled")
	}
	ps := confusion.MinePairs(commits)
	if r.cfg.MinPairCount > 1 {
		ps = ps.Prune(r.cfg.MinPairCount)
	}
	return ps
}

// mapTrees runs map round 2, reusing shard-tree checkpoints that match
// both the corpus slice and the current global counts.
func (r *runner) mapTrees(ctx context.Context, countsHash string) ([]*shardTrees, error) {
	ctx, sp := obs.StartSpan(ctx, "map_trees")
	defer sp.End()
	arts := make([]*shardTrees, len(r.plan.shards))
	var jobs []Job
	for i := range r.plan.shards {
		if a, err := r.loadTrees(ctx, i, countsHash); err == nil {
			arts[i] = a
			r.stats.TreesReused++
			continue
		}
		jobs = append(jobs, Job{
			Phase:                "trees",
			Shard:                i,
			OutPath:              r.treesPath(i),
			StmtsPath:            r.stmtsPath(i),
			CountsPath:           r.countsPath(),
			CountsHash:           countsHash,
			MinPathCount:         r.cfg.Mining.MinPathCount,
			MaxPathsPerStatement: r.cfg.Mining.MaxPathsPerStatement,
		})
	}
	sp.SetAttrInt("reused", r.stats.TreesReused)
	if len(jobs) > 0 {
		if err := r.runJobs(ctx, jobs, "grow", "shards", len(jobs)*len(minedTypes)); err != nil {
			return nil, err
		}
		for _, j := range jobs {
			a, err := r.loadTrees(ctx, j.Shard, countsHash)
			if err != nil {
				return nil, fmt.Errorf("driver: shard %d trees unreadable after map: %w", j.Shard, err)
			}
			arts[j.Shard] = a
		}
	}
	return arts, nil
}

// loadTrees reads and validates one shard's round-2 checkpoint, recorded
// as a resume_validate span when the run is traced.
func (r *runner) loadTrees(ctx context.Context, shard int, countsHash string) (*shardTrees, error) {
	ctx, sp := obs.StartSpan(ctx, "resume_validate")
	sp.SetAttr("phase", "trees")
	sp.SetAttrInt("shard", shard)
	defer sp.End()
	payload, err := knowledge.ReadCheckpointCtx(ctx, r.treesPath(shard), kindTrees)
	if err != nil {
		sp.SetAttr("result", "unreadable")
		return nil, err
	}
	a, err := decodeShardTrees(payload)
	if err != nil {
		sp.SetAttr("result", "corrupt")
		return nil, err
	}
	if a.SliceHash != r.plan.shards[shard].hash {
		sp.SetAttr("result", "stale")
		return nil, fmt.Errorf("stale checkpoint: corpus slice changed")
	}
	if a.CountsHash != countsHash {
		sp.SetAttr("result", "stale")
		return nil, fmt.Errorf("stale checkpoint: global counts changed")
	}
	sp.SetAttr("result", "reused")
	return a, nil
}

// reduceKnowledge is the final reduce: remap-merge the shard subtrees
// per pattern type, run FP-growth and the satisfaction-ratio prune once
// over the whole dataset, and assemble the artifact.
func (r *runner) reduceKnowledge(ctx context.Context, stmtArts []*shardStmts,
	treeArts []*shardTrees, counts *reduceCounts) (*knowledge.Artifact, error) {

	var stmts []*pattern.Statement
	for _, a := range stmtArts {
		stmts = append(stmts, a.statements()...)
	}

	var patterns []*pattern.Pattern
	for ti, typ := range minedTypes {
		_, sp := obs.StartSpan(ctx, "reduce_merge")
		sp.SetAttr("type", typ.String())
		shardTreesOfType := make([]mining.ShardTree, 0, len(treeArts))
		for s, a := range treeArts {
			if ti >= len(a.Types) || a.Types[ti].Type != typ {
				sp.End()
				return nil, fmt.Errorf("driver: shard %d trees missing type %v", s, typ)
			}
			tree, items, err := a.Types[ti].decodeTyped()
			if err != nil {
				sp.End()
				return nil, fmt.Errorf("driver: shard %d %v tree: %w", s, typ, err)
			}
			shardTreesOfType = append(shardTreesOfType, mining.ShardTree{
				Tree: tree, Items: items, Transactions: a.Types[ti].Transactions,
			})
		}
		merged := mining.MergeShardTrees(shardTreesOfType)
		r.stats.Mining = append(r.stats.Mining, core.MiningStat{
			Type: typ, TreeNodes: merged.Tree.Size(), Transactions: merged.Transactions,
		})
		sp.SetAttrInt("tree_nodes", merged.Tree.Size())
		sp.SetAttrInt("transactions", merged.Transactions)
		sp.End()

		pairs := counts.Pairs
		if typ == pattern.Consistency {
			pairs = nil
		}
		_, sp = obs.StartSpan(ctx, "fp_growth")
		candidates := mining.Grow(merged, typ, pairs, r.cfg.Mining)
		sp.SetAttrInt("candidates", len(candidates))
		sp.End()

		_, sp = obs.StartSpan(ctx, "prune_uncommon")
		kept := mining.PruneUncommon(candidates, stmts,
			r.cfg.Mining.MinSatisfactionRatio, r.workers(len(candidates)))
		sp.SetAttrInt("kept", len(kept))
		sp.End()
		patterns = append(patterns, kept...)
	}

	return &knowledge.Artifact{
		Lang:     r.cfg.Lang.String(),
		Pairs:    counts.Pairs,
		Patterns: patterns,
	}, nil
}

// runJobs executes map jobs on a pool of workers — in-process when
// Options.WorkerCommand is empty, spawned child processes otherwise —
// with cross-worker progress folded into one line via
// obs.ProgressAggregator. Each job writes its own checkpoint, so job
// scheduling leaves no trace in the outputs.
func (r *runner) runJobs(ctx context.Context, jobs []Job, label, unit string, total int) error {
	workers := r.workers(len(jobs))
	var agg *obs.ProgressAggregator
	if r.opts.Progress != nil {
		agg = obs.NewProgressAggregator(r.opts.Progress(label, unit), len(r.plan.shards), total)
	}

	jobCh := make(chan Job)
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		// The worker body runs in a closure so its deferred executor
		// close, which reaps the child, happens strictly before the
		// completion signal: runJobs never returns with a worker
		// unreaped.
		go func() {
			errCh <- func() error {
				var ex executor = inprocExecutor{}
				if len(r.opts.WorkerCommand) > 0 {
					pe, err := newProcExecutor(ctx, r.opts.WorkerCommand)
					if err != nil {
						return err
					}
					defer pe.close()
					ex = pe
				}
				for job := range jobCh {
					report := func(done, extra int) {
						if agg != nil {
							agg.Report(job.Shard, done, extra)
						}
					}
					start := time.Now()
					res, err := ex.run(ctx, job, report)
					if err == nil && !res.OK {
						err = fmt.Errorf("driver: shard %d %s: %s", job.Shard, job.Phase, res.Error)
					}
					if err != nil {
						return err
					}
					r.log.Debug("shard job done", "phase", job.Phase, "shard", job.Shard,
						"wall", time.Since(start))
					// The shard is done; pin its progress at its total.
					if agg != nil && job.Phase == "stmts" {
						agg.Report(job.Shard, len(job.Files), res.Statements)
					}
					if r.opts.afterJob != nil {
						if err := r.opts.afterJob(job.Phase, job.Shard); err != nil {
							return err
						}
					}
				}
				return nil
			}()
		}()
	}
	var firstErr error
dispatch:
	for _, job := range jobs {
		select {
		case jobCh <- job:
		case firstErr = <-errCh:
			workers-- // that worker is gone
			if firstErr == nil {
				firstErr = errors.New("driver: worker exited early")
			}
			break dispatch
		case <-ctx.Done():
			firstErr = ctx.Err()
			break dispatch
		}
	}
	close(jobCh)
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil && agg != nil {
		agg.Final()
	}
	return firstErr
}

// executor runs one map job somewhere.
type executor interface {
	run(ctx context.Context, job Job, report func(done, extra int)) (Result, error)
}

// inprocExecutor runs jobs on the calling goroutine.
type inprocExecutor struct{}

func (inprocExecutor) run(ctx context.Context, job Job, report func(done, extra int)) (Result, error) {
	return RunJob(ctx, job, report), nil
}

// procExecutor owns one worker child process and feeds it jobs over
// stdin/stdout JSON lines. The child's stderr is the driver's own.
type procExecutor struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

// newProcExecutor spawns one worker child.
func newProcExecutor(ctx context.Context, argv []string) (*procExecutor, error) {
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("driver: start worker %q: %w", argv[0], err)
	}
	return &procExecutor{
		cmd: cmd, stdin: stdin,
		enc: json.NewEncoder(stdin),
		dec: json.NewDecoder(stdout),
	}, nil
}

func (p *procExecutor) run(ctx context.Context, job Job, report func(done, extra int)) (Result, error) {
	if err := p.enc.Encode(job); err != nil {
		return Result{}, fmt.Errorf("driver: send job to worker: %w", err)
	}
	return readResult(p.dec, job.Shard, report)
}

// readResult decodes a worker's Result lines for one job: it forwards
// progress events to report and returns the done Result. A line that is
// not a Result, or an event other than progress or done, is an error.
func readResult(dec *json.Decoder, shard int, report func(done, extra int)) (Result, error) {
	for {
		var res Result
		if err := dec.Decode(&res); err != nil {
			return Result{}, fmt.Errorf("driver: worker died mid-job (shard %d): %w", shard, err)
		}
		switch res.Event {
		case "progress":
			report(res.Done, res.Extra)
		case "done":
			return res, nil
		default:
			return Result{}, fmt.Errorf("driver: worker sent event %q (shard %d)", res.Event, shard)
		}
	}
}

func (p *procExecutor) close() {
	p.stdin.Close()
	p.cmd.Wait()
}
