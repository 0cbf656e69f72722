package driver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"namer/internal/ast"
	"namer/internal/core"
	"namer/internal/fptree"
	"namer/internal/knowledge"
	"namer/internal/mining"
	"namer/internal/obs"
	"namer/internal/pattern"
)

// Job is one unit of map work, sent to a worker as a JSON line on stdin.
// The same struct drives in-process workers, so spawned and in-process
// runs execute identical code.
type Job struct {
	// Phase is "stmts" (map round 1: parse, analyze, extract statement
	// paths and shard-local counts) or "trees" (map round 2: rebuild the
	// shard's transactions against the global counts and grow one FP
	// subtree per pattern type).
	Phase string `json:"phase"`
	Shard int    `json:"shard"`
	// OutPath is where the worker writes its checkpoint artifact.
	OutPath string `json:"out_path"`

	// stmts-phase fields.
	CorpusDir            string   `json:"corpus_dir,omitempty"`
	Lang                 string   `json:"lang,omitempty"`
	Files                []string `json:"files,omitempty"` // corpus-relative, shard order
	UseAnalysis          bool     `json:"use_analysis,omitempty"`
	MaxPathsPerStatement int      `json:"max_paths,omitempty"`
	SliceHash            string   `json:"slice_hash,omitempty"`

	// trees-phase fields.
	StmtsPath    string `json:"stmts_path,omitempty"`  // this shard's stmts checkpoint
	CountsPath   string `json:"counts_path,omitempty"` // the reduce-counts checkpoint
	CountsHash   string `json:"counts_hash,omitempty"`
	MinPathCount int    `json:"min_path_count,omitempty"`
}

// Result is a worker→driver JSON line: either a progress event or the
// final outcome of a job.
type Result struct {
	Event string `json:"event"` // "progress" or "done"
	Shard int    `json:"shard"`
	Phase string `json:"phase,omitempty"`

	// progress fields: absolute within the job.
	Done  int `json:"done,omitempty"`
	Extra int `json:"extra,omitempty"`

	// done fields.
	OK           bool   `json:"ok"`
	Error        string `json:"error,omitempty"`
	FilesParsed  int    `json:"files_parsed,omitempty"`
	FilesSkipped int    `json:"files_skipped,omitempty"`
	Statements   int    `json:"statements,omitempty"`
	Transactions int    `json:"transactions,omitempty"`
}

// RunJob executes one map job and writes its checkpoint. report, when
// non-nil, receives absolute (done, extra) progress for the job. When ctx
// carries a live trace the job records its pipeline as spans (including
// the checkpoint I/O); otherwise every span call is a free no-op.
func RunJob(ctx context.Context, job Job, report func(done, extra int)) Result {
	res := Result{Event: "done", Shard: job.Shard, Phase: job.Phase}
	ctx, sp := obs.StartSpan(ctx, "job")
	sp.SetAttr("phase", job.Phase)
	sp.SetAttrInt("shard", job.Shard)
	var err error
	switch job.Phase {
	case "stmts":
		err = runStmtsJob(ctx, job, report, &res)
	case "trees":
		err = runTreesJob(ctx, job, report, &res)
	default:
		err = fmt.Errorf("driver: unknown job phase %q", job.Phase)
	}
	sp.End()
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.OK = true
	return res
}

// runStmtsJob is map round 1: load and parse the shard's files, run the
// per-file front end (analysis, AST+ transformation, name path
// extraction), and checkpoint the statement path lists plus the shard's
// pass-1 path counts.
func runStmtsJob(ctx context.Context, job Job, report func(done, extra int), res *Result) error {
	lang, err := ast.ParseLanguage(job.Lang)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(lang)
	cfg.UseAnalysis = job.UseAnalysis
	if job.MaxPathsPerStatement > 0 {
		cfg.Mining.MaxPathsPerStatement = job.MaxPathsPerStatement
	}
	// Shard-level fan-out is the driver's job; within a shard the front
	// end runs serially so P workers never oversubscribe P cores.
	cfg.Parallelism = 1
	if report != nil {
		cfg.Progress = func(done, total, statements int) { report(done, statements) }
	}

	_, lsp := obs.StartSpan(ctx, "load_shard")
	var files []*core.InputFile
	skipped := 0
	for _, rel := range job.Files {
		f, err := core.LoadFile(job.CorpusDir, rel, lang)
		if err != nil {
			skipped++
			continue
		}
		files = append(files, f)
	}
	lsp.SetAttrInt("files", len(files))
	lsp.SetAttrInt("skipped", skipped)
	lsp.End()

	sys := core.NewSystem(cfg)
	// Per-file analysis panics degrade to empty statement lists, exactly
	// as the single-process pipeline treats them (warnings, not failures).
	sys.ProcessFilesCtx(ctx, files)

	art := &shardStmts{
		SliceHash:    job.SliceHash,
		FilesParsed:  len(files),
		FilesSkipped: skipped,
	}
	interned := make(map[string]int32)
	for _, ps := range sys.Stmts {
		ids := make([]int32, len(ps.PS.Paths))
		for j, p := range ps.PS.Paths {
			k := p.Key()
			id, ok := interned[k]
			if !ok {
				id = int32(len(art.Paths))
				interned[k] = id
				art.Paths = append(art.Paths, p)
				art.Counts = append(art.Counts, 0)
			}
			art.Counts[id]++
			ids[j] = id
		}
		art.Stmts = append(art.Stmts, ids)
	}
	res.FilesParsed = art.FilesParsed
	res.FilesSkipped = art.FilesSkipped
	res.Statements = len(art.Stmts)
	return knowledge.WriteCheckpointCtx(ctx, job.OutPath, kindStmts, encodeShardStmts(art))
}

// minedTypes is the fixed pattern-type order of the pipeline (the order
// core.System.MinePatterns appends results in).
var minedTypes = []pattern.Type{pattern.Consistency, pattern.ConfusingWord}

// runTreesJob is map round 2: re-derive the shard's statements from its
// round-1 checkpoint, rebuild transactions against the dataset-wide
// counts, and checkpoint one FP subtree per pattern type.
func runTreesJob(ctx context.Context, job Job, report func(done, extra int), res *Result) error {
	stmtsPayload, err := knowledge.ReadCheckpointCtx(ctx, job.StmtsPath, kindStmts)
	if err != nil {
		return err
	}
	sa, err := decodeShardStmts(stmtsPayload)
	if err != nil {
		return fmt.Errorf("%s: %w", job.StmtsPath, err)
	}
	countsPayload, err := knowledge.ReadCheckpointCtx(ctx, job.CountsPath, kindCounts)
	if err != nil {
		return err
	}
	if h := hashBytes(countsPayload); job.CountsHash != "" && h != job.CountsHash {
		return fmt.Errorf("driver: %s hash %s, want %s", job.CountsPath, h, job.CountsHash)
	}
	ca, err := decodeReduceCounts(countsPayload)
	if err != nil {
		return fmt.Errorf("%s: %w", job.CountsPath, err)
	}

	stmts := sa.statements()
	freq := ca.freq()
	cfg := mining.Config{
		MinPathCount:         job.MinPathCount,
		MaxPathsPerStatement: job.MaxPathsPerStatement,
		Parallelism:          1,
	}
	art := &shardTrees{SliceHash: sa.SliceHash, CountsHash: hashBytes(countsPayload)}
	for i, typ := range minedTypes {
		pairs := ca.Pairs
		if typ == pattern.Consistency {
			pairs = nil
		}
		_, tsp := obs.StartSpan(ctx, "build_shard_tree")
		tsp.SetAttr("type", typ.String())
		st := mining.BuildShardTree(stmts, typ, pairs, freq, cfg)
		tsp.SetAttrInt("transactions", st.Transactions)
		tsp.End()
		art.Types = append(art.Types, typedTree{
			Type:         typ,
			Transactions: st.Transactions,
			Tree:         fptree.EncodeTree(st.Tree),
			itemPaths:    st.Items,
		})
		res.Transactions += st.Transactions
		if report != nil {
			report(i+1, res.Transactions)
		}
	}
	res.Statements = len(stmts)
	return knowledge.WriteCheckpointCtx(ctx, job.OutPath, kindTrees, encodeShardTrees(art))
}

func hashBytes(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// ServeWorker is the namer-mine -worker main loop: it reads Job JSON
// lines from r and writes progress and done Result lines to w until EOF.
// Job failures are reported in-band (OK=false); only transport errors
// end the loop with a non-nil error. lg (nil is fine) receives per-job
// debug records on the worker's stderr, which the driver passes through
// untouched; every record carries the worker's worker_pid.
func ServeWorker(r io.Reader, w io.Writer, lg *slog.Logger) error {
	lg = obs.OrDiscard(lg).With("worker_pid", os.Getpid())
	dec := json.NewDecoder(r)
	enc := json.NewEncoder(w)
	for {
		var job Job
		if err := dec.Decode(&job); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("driver: worker read: %w", err)
		}
		lg.Debug("job start", "phase", job.Phase, "shard", job.Shard, "files", len(job.Files))
		start := time.Now()
		var reportErr error
		res := RunJob(context.Background(), job, func(done, extra int) {
			if reportErr == nil {
				reportErr = enc.Encode(Result{
					Event: "progress", Shard: job.Shard, Phase: job.Phase,
					Done: done, Extra: extra,
				})
			}
		})
		if reportErr != nil {
			return fmt.Errorf("driver: worker write: %w", reportErr)
		}
		lg.Debug("job done", "phase", job.Phase, "shard", job.Shard, "wall", time.Since(start))
		if err := enc.Encode(res); err != nil {
			return fmt.Errorf("driver: worker write: %w", err)
		}
	}
}
