package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"namer/internal/ast"
	"namer/internal/astplus"
	"namer/internal/core"
	"namer/internal/golang"
	"namer/internal/knowledge"
	"namer/internal/mining"
	"namer/internal/namepath"
	"namer/internal/pattern"
	"namer/internal/pointsto"
	"namer/internal/pylang"
	"namer/internal/serve"
	"namer/internal/session"
	"namer/internal/udiff"
)

// reps is how many times a cheap layer call is repeated; its median is
// reported.
const reps = 5

// replayScripts caps the session scripts the session layer replays: 300
// scripts are about 1,200 changes, plenty for its medians and ratios, and
// each goroot change costs a full analysis and a fresh scan.
const replayScripts = 300

// traceLayers is the traced run: after the workload's phases it replays
// each layer's public functions from this package, timing every call, and
// records the per-layer metrics. Every metric is printed on every
// workload; a layer the workload does not exercise reads 0.
func (r *run) traceLayers(w workload, in *inputs, b *batch) error {
	// The runtime counters cover the workload's phases, not the replays.
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.layer("runtime.alloc_mb", "MB", float64(mem.TotalAlloc)/(1<<20))
	r.layer("runtime.gc_cycles", "count", float64(mem.NumGC))

	sys := core.NewSystem(b.cfg)
	sys.MinePairs(b.commits)
	r.frontEnd(w, b)
	r.processPool(sys, b)
	r.miner(sys, b)
	art, err := knowledge.Load(b.knowledge)
	if err != nil {
		return err
	}
	r.knowledgeLayer(art)
	ref, err := referenceSystem(b.knowledge)
	if err != nil {
		return err
	}
	r.match(ref, b)
	r.diffLayer(w, in, ref)
	r.sessionLayer(ref, r.serve.scripts[:min(len(r.serve.scripts), replayScripts)])
	r.handler(w, in, ref)
	if err := r.checkpoints(b); err != nil {
		return err
	}

	m := r.serve.metrics
	hits, misses := m["namer_cache_hits_total"], m["namer_cache_misses_total"]
	r.layer("servecache.hit_ratio", "ratio", ratio(hits, hits+misses))
	r.layer("servecache.evictions", "count", m["namer_cache_evictions_total"])
	r.layer("serve.shed", "count", m["namer_scan_shed_total"])
	r.layer("loadgen.lateness_p99_ms", "ms", r.serve.lateP99)
	r.layer("loadgen.sent", "count", float64(r.serve.sent))
	r.layer("serve.fixed_scan_p50_ms", "ms", r.serve.fixedScanP50)
	r.layer("serve.scan_p95_ms", "ms", r.serve.scanP95)
	r.layer("serve.scan_p99_ms", "ms", r.serve.scanP99)
	r.layer("serve.change_p99_ms", "ms", r.serve.changeP99)
	return nil
}

// feReplay accumulates the front end's work as replayed and timed.
type feReplay struct {
	parse, analyze, transform, extract, stmt time.Duration
	project                                  time.Duration // part of stmt: line split and statement projection
	facts, fellBack, paths, failed           int
}

// replayFile performs the parse and ProcessFile's work on one file
// through the layers' public functions: golang.Parse or pylang.Parse,
// pointsto.Analyze, astplus.Transform, namepath.Extract, and core's own
// work around them (splitting the source into lines, the statement
// projection of the tree, and per statement the fingerprint, statement
// index, source line and record). The file's statements go through one
// stage at a time, so a file costs six timestamps whatever its size. With
// timed set it adds the time between chained timestamps to those five
// parts of fe, so no time between two calls goes unattributed; without
// it, it makes the same calls untimed. The counts go to fe either way.
func replayFile(w workload, cfg core.Config, f *core.InputFile, fe *feReplay, timed bool) {
	now := func() time.Time {
		if timed {
			return time.Now()
		}
		return time.Time{}
	}
	last := now()
	var root *ast.Node
	var err error
	if w.lang == ast.Go {
		root, err = golang.Parse(f.Source)
	} else {
		root, err = pylang.Parse(f.Source)
	}
	t := now()
	fe.parse += t.Sub(last)
	if err != nil {
		fe.failed++
		return
	}
	res := pointsto.Analyze(root, w.lang, cfg.PointsTo)
	last, t = t, now()
	fe.analyze += t.Sub(last)
	lines := strings.Split(f.Source, "\n")
	stmts := ast.Statements(root)
	last, t = t, now()
	fe.project += t.Sub(last)
	fe.stmt += t.Sub(last)
	plus := make([]*ast.Node, len(stmts))
	for i, stmt := range stmts {
		plus[i] = astplus.Transform(stmt, res.OriginOf)
	}
	last, t = t, now()
	fe.transform += t.Sub(last)
	paths := make([][]namepath.Path, len(plus))
	for i, p := range plus {
		paths[i] = namepath.Extract(p, cfg.Mining.MaxPathsPerStatement)
	}
	last, t = t, now()
	fe.extract += t.Sub(last)
	var out []*core.ProcStmt
	for i, stmt := range stmts {
		if len(paths[i]) == 0 {
			continue
		}
		srcLine := ""
		if stmt.Line >= 1 && stmt.Line <= len(lines) {
			srcLine = strings.TrimSpace(lines[stmt.Line-1])
		}
		out = append(out, &core.ProcStmt{Repo: f.Repo, Path: f.Path, Line: stmt.Line,
			Fingerprint: stmt.Root.Fingerprint(), PS: pattern.NewStatement(paths[i]), SourceLine: srcLine})
	}
	last, t = t, now()
	fe.stmt += t.Sub(last)
	fe.facts += res.Stats.Facts
	if res.Stats.FellBack {
		fe.fellBack++
	}
	for _, ps := range paths {
		fe.paths += len(ps)
	}
}

// serialFile parses one file with core.ParseSource and runs
// System.ProcessFile on it: the front-end work replayFile reproduces.
func serialFile(w workload, sys *core.System, f *core.InputFile) {
	root, err := core.ParseSource(w.lang, f.Source)
	if err != nil {
		return
	}
	g := *f
	g.Root = root
	sys.ProcessFile(&g)
}

// frontEnd times the front end three ways, file by file: the serial
// parse-plus-ProcessFile pass, the untimed replay and the timed replay.
// The three run back to back on each file, in an order that rotates from
// file to file, so a change of the host's speed during the passes
// charges all three alike. It reports the timed replay's layers, summed
// over the corpus and averaged over the passes: at least two, and more
// until three seconds have passed, after one untimed warm-up pass. frontend.coverage_ratio is the share of the serial pass
// the four front-end layers account for. The check is that the five
// replayed parts together, core's own work included, account for at
// least 0.9 of it: the replay reproduces the front end's real cost.
func (r *run) frontEnd(w workload, b *batch) {
	sys := core.NewSystem(b.cfg)
	for _, f := range b.files {
		serialFile(w, sys, f)
	}
	var fe, untimedFE feReplay
	var serial, untimed, timed time.Duration
	runtime.GC()
	passes := 0
	for deadline := time.Now().Add(3 * time.Second); passes < 2 || time.Now().Before(deadline); passes++ {
		for i, f := range b.files {
			for k := 0; k < 3; k++ {
				switch (i + k) % 3 {
				case 0:
					serial += timeIt(func() { serialFile(w, sys, f) })
				case 1:
					untimed += timeIt(func() { replayFile(w, b.cfg, f, &untimedFE, false) })
				case 2:
					timed += timeIt(func() { replayFile(w, b.cfg, f, &fe, true) })
				}
			}
		}
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(passes) }
	parseName, otherParse := "golang.parse_ms", "pylang.parse_ms"
	if w.lang == ast.Python {
		parseName, otherParse = otherParse, parseName
	}
	layers := fe.parse + fe.analyze + fe.transform + fe.extract
	r.layer(parseName, "ms", per(fe.parse))
	r.layer(otherParse, "ms", 0)
	r.layer("golang.parse_failed", "count", float64(fe.failed/passes))
	r.layer("pointsto.analyze_ms", "ms", per(fe.analyze))
	r.layer("pointsto.facts", "count", float64(fe.facts/passes))
	r.layer("pointsto.fallback_ratio", "ratio", ratio(float64(fe.fellBack), float64(passes*len(b.files))))
	r.layer("astplus.transform_ms", "ms", per(fe.transform))
	r.layer("namepath.extract_ms", "ms", per(fe.extract))
	r.layer("namepath.paths", "count", float64(fe.paths/passes))
	r.layer("core.statement_ms", "ms", per(fe.stmt))
	coverage := ratio(float64(layers), float64(serial))
	explained := ratio(float64(layers+fe.stmt), float64(serial))
	r.layer("frontend.coverage_ratio", "ratio", coverage)
	r.layer("trace.overhead_ratio", "ratio", ratio(float64(timed), float64(untimed))-1)
	logf("front end, %d passes, per pass: timed replay %.1f ms, untimed %.1f ms, serial parse+ProcessFile %.1f ms; of the "+
		"serial pass the four layers cover %.1f%%, core's own work %.1f%% (line split and statement projection %.1f%%)",
		passes, per(timed), per(untimed), per(serial), 100*coverage, 100*ratio(float64(fe.stmt), float64(serial)),
		100*ratio(float64(fe.project), float64(serial)))
	r.check(explained >= 0.9, "the replayed front end accounts for %.3f of the serial parse+ProcessFile time, want at least 0.9", explained)
}

// processPool runs ProcessFile over the corpus on two workers, timing
// each file, for the front end's wall time and worker utilization; the
// statements it produces feed the miner replay.
func (r *run) processPool(sys *core.System, b *batch) {
	const workers = 2
	next := make(chan int, len(b.files)) // sized to the number of sends
	for i := range b.files {
		next <- i
	}
	close(next)
	results := make([][]*core.ProcStmt, len(b.files))
	busy := make([]time.Duration, workers)
	var wg sync.WaitGroup
	wall := timeIt(func() {
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				for i := range next {
					start := time.Now()
					results[i] = sys.ProcessFile(b.files[i])
					busy[wi] += time.Since(start)
				}
			}(wi)
		}
		wg.Wait()
	})
	for _, stmts := range results {
		sys.Stmts = append(sys.Stmts, stmts...)
	}
	r.layer("core.process_ms", "ms", ms(wall))
	r.layer("core.process_utilization", "ratio", ratio(float64(busy[0]+busy[1]), float64(wall*workers)))
}

// miner replays both mining passes through the mining package's stage
// functions over the processed statements.
func (r *run) miner(sys *core.System, b *batch) {
	stmts := make([]*pattern.Statement, len(sys.Stmts))
	for i, ps := range sys.Stmts {
		stmts[i] = ps.PS
	}
	cfg := b.cfg.Mining
	workers := 2
	var count, build, grow, prune time.Duration
	var transactions, nodes, candidates, kept int
	for _, t := range []pattern.Type{pattern.Consistency, pattern.ConfusingWord} {
		pairs := sys.Pairs
		if t == pattern.Consistency {
			pairs = nil
		}
		var freq map[string]int
		count += timeIt(func() { freq = mining.CountPaths(stmts, workers) })
		var st mining.ShardTree
		build += timeIt(func() { st = mining.BuildShardTree(stmts, t, pairs, freq, cfg) })
		transactions += st.Transactions
		nodes += st.Tree.Size()
		var cands, out []*pattern.Pattern
		grow += timeIt(func() { cands = mining.Grow(st, t, pairs, cfg) })
		prune += timeIt(func() { out = mining.PruneUncommon(cands, stmts, cfg.MinSatisfactionRatio, workers) })
		candidates += len(cands)
		kept += len(out)
	}
	sys.MinePatterns()
	r.check(kept == len(sys.Patterns), "miner replay kept %d patterns, MinePatterns %d", kept, len(sys.Patterns))
	r.layer("mining.count_ms", "ms", ms(count))
	r.layer("mining.build_tree_ms", "ms", ms(build))
	r.layer("mining.grow_ms", "ms", ms(grow))
	r.layer("mining.prune_ms", "ms", ms(prune))
	r.layer("mining.transactions", "count", float64(transactions))
	r.layer("fptree.nodes", "count", float64(nodes))
	r.layer("mining.patterns", "count", float64(kept))
	r.layer("mining.prune_keep_ratio", "ratio", ratio(float64(kept), float64(candidates)))
}

// knowledgeLayer times the knowledge codec and the import.
func (r *run) knowledgeLayer(art *knowledge.Artifact) {
	var enc, dec, imp []float64
	var data []byte
	for i := 0; i < reps; i++ {
		enc = append(enc, ms(timeIt(func() { data, _ = knowledge.EncodeBinary(art) })))
		var back *knowledge.Artifact
		dec = append(dec, ms(timeIt(func() { back, _ = knowledge.DecodeBinary(data) })))
		sys := core.NewSystem(core.DefaultConfig(ast.Python))
		var err error
		imp = append(imp, ms(timeIt(func() { err = sys.ImportKnowledge(back) })))
		r.check(err == nil, "import of decoded knowledge: %v", err)
	}
	r.layer("knowledge.encode_ms", "ms", median(enc))
	r.layer("knowledge.decode_ms", "ms", median(dec))
	r.layer("knowledge.bytes", "bytes", float64(len(data)))
	r.layer("core.import_ms", "ms", median(imp))
}

// match replays the violation match over the corpus statements through
// the pattern index and the statement predicates, then times the batch
// scan and the classifier on its violations.
func (r *run) match(ref *core.System, b *batch) {
	var res *core.ScanResult
	scan := timeIt(func() { res = ref.ScanFiles(b.files) })
	r.layer("core.scan_ms", "ms", ms(scan))

	idx := mining.NewIndex(ref.Patterns)
	var cands, matches, violations int
	var stmts []*pattern.Statement
	for _, f := range b.files {
		for _, ps := range ref.ProcessFile(f) {
			stmts = append(stmts, ps.PS)
		}
	}
	d := timeIt(func() {
		for _, s := range stmts {
			for _, p := range idx.Candidates(s) {
				cands++
				if !s.Matches(p) {
					continue
				}
				matches++
				if s.Satisfied(p) {
					continue
				}
				if _, ok := s.Explain(p); ok {
					violations++
				}
			}
		}
	})
	r.layer("pattern.match_ms", "ms", ms(d))
	r.layer("pattern.candidates", "count", float64(cands))
	r.layer("pattern.match_ratio", "ratio", ratio(float64(matches), float64(cands)))
	r.layer("pattern.violation_ratio", "ratio", ratio(float64(violations), float64(matches)))

	kept := 0
	d = timeIt(func() {
		for _, v := range res.Violations {
			if ref.ClassifyIn(res.Stats, v) {
				kept++
			}
		}
	})
	r.layer("ml.classify_ms", "ms", ms(d))
	r.layer("ml.keep_ratio", "ratio", ratio(float64(kept), float64(len(res.Violations))))
}

// diffLayer times patch application and the diff scan on seeded edits of
// held-out files.
func (r *run) diffLayer(w workload, in *inputs, ref *core.System) {
	t := &traffic{w: w, ed: newEditor(w.lang), rng: r.rng, files: in.traffic}
	var apply, diff []float64
	for i := 0; i < 50; i++ {
		f, after := t.edited(t.pick)
		patch, ok := unifiedDiff(f.path, f.source, after)
		if !ok {
			continue
		}
		var got string
		var err error
		apply = append(apply, ms(timeIt(func() { got, err = udiff.Apply(f.source, patch) })))
		r.check(err == nil && got == after, "udiff.Apply of %s: %v", f.path, err)
		var res *core.DiffResult
		diff = append(diff, ms(timeIt(func() {
			res = ref.DiffFiles([]core.DiffFile{{Path: f.path, Before: f.source, After: after}})
		})))
		r.check(len(res.Errors) == 0, "DiffFiles of %s: %v", f.path, res.Errors)
	}
	r.layer("udiff.apply_ms", "ms", median(apply))
	r.layer("core.diff_ms", "ms", median(diff))
}

// sessionLayer replays editor sessions' edit scripts through the
// session manager and the overlay analysis, and measures how often the
// overlay result diverges from a fresh scan of the same content.
func (r *run) sessionLayer(ref *core.System, scripts []sessionScript) {
	m := session.NewManager(session.Config{})
	var update, overlay []float64
	var changes, incremental, stmts, reused, diverged int
	for _, s := range scripts {
		sess, err := m.Open()
		if err != nil {
			r.check(false, "session open: %v", err)
			return
		}
		var last *core.OverlayResult
		var overlayTime time.Duration
		scan := func(ch *session.Change) any {
			prev, _ := ch.Prev.(*core.FileAnalysis)
			f := &core.InputFile{Repo: "session", Path: ch.Path, Source: ch.After}
			start := time.Now()
			res, err := ref.AnalyzeOverlay(f, prev, ch.Hint)
			overlayTime = time.Since(start)
			if err != nil {
				last = nil
				return nil
			}
			last = res
			return res.Analysis
		}
		sess.Update(s.path, 0, []session.Edit{{Text: s.original}}, scan)
		for i, ed := range s.edits {
			d := timeIt(func() { err = sess.Update(s.path, i+1, []session.Edit{ed}, scan) })
			snap, _, _ := sess.Snapshot(s.path)
			r.check(err == nil && last != nil && snap == s.contents[i],
				"session replay of %s edit %d: %v", s.path, i, err)
			if last == nil {
				continue
			}
			changes++
			update = append(update, ms(d-overlayTime))
			overlay = append(overlay, ms(overlayTime))
			if last.Incremental {
				incremental++
			}
			stmts += last.Statements
			reused += last.ReusedStatements
			full := ref.ScanFiles([]*core.InputFile{{Repo: "session", Path: s.path, Source: snap}})
			if !sameViolations(core.Dedup(last.Violations), full.Violations) {
				diverged++
			}
		}
		m.Close(sess.ID())
	}
	r.layer("session.update_ms", "ms", median(update))
	r.layer("core.overlay_ms", "ms", median(overlay))
	r.layer("core.overlay_incremental_ratio", "ratio", ratio(float64(incremental), float64(changes)))
	r.layer("core.overlay_reuse_ratio", "ratio", ratio(float64(reused), float64(stmts)))
	r.layer("core.overlay_divergence_ratio", "ratio", ratio(float64(diverged), float64(changes)))
}

func sameViolations(a, b []*core.Violation) bool {
	key := func(vs []*core.Violation) string {
		var sb strings.Builder
		for _, v := range vs {
			sb.WriteString(v.Stmt.Fingerprint + "\x00" + v.Detail.Original + "\x00" +
				v.Detail.Suggested + "\x00" + v.Pattern.Key() + "\n")
		}
		return sb.String()
	}
	return key(a) == key(b)
}

// handler replays scan requests through the in-process Server handler:
// the handler's own latency, without the network and the child process.
func (r *run) handler(w workload, in *inputs, ref *core.System) {
	sv := serve.New(ref, serve.Config{})
	h := sv.Handler()
	defer sv.Close()
	t := &traffic{w: w, ed: newEditor(w.lang), rng: r.rng, files: in.traffic, base: "http://bench"}
	var lat []float64
	for i := 0; i < 300; i++ {
		rq := t.next(shareEdit/(shareEdit+shareRescan), 1)
		req := httptest.NewRequest(http.MethodPost, rq.url, bytes.NewReader(rq.body))
		rec := httptest.NewRecorder()
		lat = append(lat, ms(timeIt(func() { h.ServeHTTP(rec, req) })))
		r.check(rec.Code == http.StatusOK, "in-process scan: status %d", rec.Code)
	}
	r.layer("serve.handler_ms", "ms", median(lat))
	r.layer("serve.transport_ms", "ms", r.serve.scanP50-median(lat))
}

// checkpoints reports the driver's stage split and times reading and
// rewriting each of its checkpoint files.
func (r *run) checkpoints(b *batch) error {
	r.layer("driver.map_ms", "ms", ms(b.driver.MapWall))
	r.layer("driver.reduce_ms", "ms", ms(b.driver.ReduceWall))
	r.layer("driver.reuse_ratio", "ratio",
		ratio(float64(b.resume.StmtsReused+b.resume.TreesReused), float64(2*b.resume.Shards)))
	kinds := map[string]string{".stmts.ck": "shard-stmts", ".trees.ck": "shard-trees", "counts.ck": "reduce-counts"}
	entries, err := os.ReadDir(b.ckptDir)
	if err != nil {
		return err
	}
	var read, write time.Duration
	var size int
	for _, e := range entries {
		for suffix, kind := range kinds {
			if !strings.HasSuffix(e.Name(), suffix) {
				continue
			}
			path := filepath.Join(b.ckptDir, e.Name())
			var payload []byte
			read += timeIt(func() { payload, err = knowledge.ReadCheckpoint(path, kind) })
			if err != nil {
				return err
			}
			size += len(payload)
			copyPath := filepath.Join(r.work, "rewrite.ck")
			write += timeIt(func() { err = knowledge.WriteCheckpoint(copyPath, kind, payload) })
			if err != nil {
				return err
			}
		}
	}
	r.layer("knowledge.checkpoint_read_ms", "ms", ms(read))
	r.layer("knowledge.checkpoint_write_ms", "ms", ms(write))
	r.layer("driver.checkpoint_bytes", "bytes", float64(size))
	return nil
}
