// Package mining implements Algorithms 1 and 2 of §3.3: growing an FP tree
// over the name paths of a corpus of statements, with each transaction
// split into condition paths and deduction paths, then traversing the tree
// to generate candidate name patterns, and finally pruning uncommon
// patterns by their satisfaction/match ratio over the dataset.
package mining

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"strings"

	"namer/internal/confusion"
	"namer/internal/fptree"
	"namer/internal/namepath"
	"namer/internal/obs"
	"namer/internal/parallel"
	"namer/internal/pattern"
)

// Config carries the regularization hyperparameters of §5.1.
type Config struct {
	// MinPathCount drops name paths occurring <= this many times in the
	// dataset before mining (the paper uses 10, removing >99% of paths).
	MinPathCount int
	// MaxPathsPerStatement keeps only the first n paths per statement
	// (the paper uses 10).
	MaxPathsPerStatement int
	// MaxConditionPaths bounds the condition size (the paper uses 10).
	MaxConditionPaths int
	// MinPatternCount prunes patterns below this FP-tree support (the
	// paper uses 100 for Python, 500 for Java; scale to corpus size).
	MinPatternCount int
	// MinSatisfactionRatio is the pruneUncommon threshold (0.8).
	MinSatisfactionRatio float64
	// MaxCombinationsPerNode caps how many condition subsets are emitted
	// per isLast node; 1 emits only the full ancestor condition.
	MaxCombinationsPerNode int
	// Parallelism is the worker count for the sharded mining stages
	// (pass-1 path counting, pass-2 FP-tree construction, and candidate
	// pruning): 0 uses every CPU, 1 forces the serial reference path.
	// Outputs are byte-identical at any setting.
	Parallelism int
	// OnTreeBuilt, when non-nil, is called with the FP tree's node count
	// and the number of inserted transactions after pass 2, before
	// pattern generation — a stats hook for benchmarks and the cmd
	// binaries; it does not affect mining output.
	OnTreeBuilt func(nodes, transactions int)
}

// DefaultConfig returns the paper's hyperparameters with a pattern count
// threshold suitable for corpus-scale runs (callers rescale it).
func DefaultConfig() Config {
	return Config{
		MinPathCount:           10,
		MaxPathsPerStatement:   10,
		MaxConditionPaths:      10,
		MinPatternCount:        100,
		MinSatisfactionRatio:   0.8,
		MaxCombinationsPerNode: 16,
	}
}

// AutoMinPatternCount is the MinPatternCount a mine of files parsed
// files uses when none is given: a third of the file count, at least 5.
// The single-process and the distributed mine both call it, so they
// prune with the same threshold.
func AutoMinPatternCount(files int) int {
	return max(files/3, 5)
}

// MinePatterns runs Algorithm 1 over the statements. For confusing-word
// patterns, pairs supplies the mined confusing word pairs; it is ignored
// for consistency patterns.
func MinePatterns(stmts []*pattern.Statement, t pattern.Type,
	pairs *confusion.PairSet, cfg Config) []*pattern.Pattern {
	return MinePatternsCtx(context.Background(), stmts, t, pairs, cfg)
}

// MinePatternsCtx is MinePatterns under a tracing context. One "mine"
// span (attribute: pattern type) covers the pass, with a child span per
// algorithm stage:
//
//	pass1_count     path frequency counting (Algorithm 1, pass 1)
//	build_tree      transaction generation + FP-tree growth (pass 2)
//	fp_growth       tree traversal and candidate generation (Algorithm 2)
//	prune_uncommon  satisfaction-ratio pruning (Algorithm 1, line 9)
//
// Outside a trace every span call is a no-op; mining output is
// identical either way.
func MinePatternsCtx(ctx context.Context, stmts []*pattern.Statement, t pattern.Type,
	pairs *confusion.PairSet, cfg Config) []*pattern.Pattern {

	ctx, msp := obs.StartSpan(ctx, "mine")
	msp.SetAttr("type", t.String())
	defer msp.End()

	if cfg.MaxPathsPerStatement <= 0 {
		cfg.MaxPathsPerStatement = 10
	}
	if cfg.MinSatisfactionRatio <= 0 {
		cfg.MinSatisfactionRatio = 0.8
	}

	workers := parallel.Degree(cfg.Parallelism)

	// Pass 1: path frequencies across the dataset, counted on per-shard
	// maps and summed shard-by-shard. Addition commutes, so the merged
	// counts are identical to a serial pass regardless of scheduling.
	_, sp := obs.StartSpan(ctx, "pass1_count")
	sp.SetAttrInt("statements", len(stmts))
	freq := CountPaths(stmts, workers)
	sp.SetAttrInt("distinct_paths", len(freq))
	sp.End()

	// Pass 2: grow the FP tree (Algorithm 1, lines 4-7). The single-process
	// path is the one-shard special case of the map/reduce split: build one
	// shard tree over all statements, "merge" the single tree, grow.
	_, sp = obs.StartSpan(ctx, "build_tree")
	st := BuildShardTree(stmts, t, pairs, freq, cfg)
	sp.SetAttrInt("transactions", st.Transactions)
	sp.SetAttrInt("tree_nodes", st.Tree.Size())
	sp.End()
	if cfg.OnTreeBuilt != nil {
		cfg.OnTreeBuilt(st.Tree.Size(), st.Transactions)
	}

	// Algorithm 2: generate patterns from the FP tree.
	_, sp = obs.StartSpan(ctx, "fp_growth")
	candidates := Grow(st, t, pairs, cfg)
	sp.SetAttrInt("candidates", len(candidates))
	sp.End()

	_, sp = obs.StartSpan(ctx, "prune_uncommon")
	out := PruneUncommon(candidates, stmts, cfg.MinSatisfactionRatio, workers)
	sp.SetAttrInt("kept", len(out))
	sp.End()
	msp.SetAttrInt("patterns", len(out))
	return out
}

// ShardTree is the pass-2 product of one corpus shard: the FP tree over
// the shard's transactions, the item table mapping the tree's dense item
// ids back to name paths, and the number of inserted transactions. It is
// the unit the map/reduce mining driver checkpoints per shard and folds
// with MergeShardTrees on the reduce side.
type ShardTree struct {
	Tree         *fptree.Tree
	Items        []namepath.Path
	Transactions int
}

// BuildShardTree runs pass 2 of Algorithm 1 over one shard of statements:
// transaction generation (path filtering by the dataset-wide frequency
// table, condition/deduction splits, canonical item ordering) and FP-tree
// growth. freq must be the merged pass-1 counts of the WHOLE dataset, not
// just this shard — both the MinPathCount filter and the item ordering
// depend on it, which is why the distributed protocol needs a count-merge
// barrier between pass 1 and pass 2.
//
// Item ordering within a transaction is canonical and id-free: condition
// paths sort by (dataset frequency desc, path key asc), deduction paths by
// path key asc. Because the ordering never consults shard-local interner
// ids, the transaction of a statement is the same path sequence no matter
// which shard builds it, and an FP tree is uniquely determined by its
// transaction multiset — so merging per-shard trees yields byte-identical
// knowledge to a single-process build at any shard count.
func BuildShardTree(stmts []*pattern.Statement, t pattern.Type,
	pairs *confusion.PairSet, freq map[string]int, cfg Config) ShardTree {

	if cfg.MaxPathsPerStatement <= 0 {
		cfg.MaxPathsPerStatement = 10
	}
	workers := parallel.Degree(cfg.Parallelism)
	in := namepath.NewInterner()
	var itemFreq []int // dense: itemFreq[id] = dataset frequency of the path
	intern := func(p namepath.Path) int32 {
		id := in.Intern(p)
		if id == len(itemFreq) {
			itemFreq = append(itemFreq, freq[p.Key()])
		}
		return int32(id)
	}
	var tree *fptree.Tree // serial path: grow directly, no materialization
	var txs *fptree.Transactions
	if workers <= 1 {
		tree = fptree.New()
	} else {
		txs = fptree.NewTransactions()
	}
	transactions := 0
	var (
		frequent []namepath.Path // per-statement scratch, reused
		items    []int32         // per-transaction scratch, reused
	)
	for _, s := range stmts {
		paths := s.Paths
		if len(paths) > cfg.MaxPathsPerStatement {
			paths = paths[:cfg.MaxPathsPerStatement]
		}
		frequent = frequent[:0]
		for _, p := range paths {
			if freq[p.Key()] > cfg.MinPathCount {
				frequent = append(frequent, p)
			}
		}
		for _, split := range splitPaths(frequent, t, pairs) {
			items = items[:0]
			for _, c := range split.cond {
				items = append(items, intern(c))
			}
			sortItems(items, itemFreq, in)
			deductStart := len(items)
			for _, d := range split.deduct {
				items = append(items, intern(d))
			}
			sortByKey(items[deductStart:], in)
			if len(items) == 0 {
				continue
			}
			transactions++
			if tree != nil {
				tree.Add(items)
			} else {
				txs.Push(items)
			}
		}
	}
	if tree == nil {
		tree = fptree.BuildSharded(txs, workers)
	}
	st := ShardTree{Tree: tree, Transactions: transactions}
	st.Items = make([]namepath.Path, in.Len())
	for i := range st.Items {
		st.Items[i] = in.Path(i)
	}
	return st
}

// MergeShardTrees folds per-shard trees into one: every shard's item ids
// are remapped into a shared interner and its tree is count-merged into
// the accumulator (fptree.Tree.MergeMapped). Because each shard's
// transactions were ordered canonically (BuildShardTree), the merged tree
// equals the tree a single process would build over the concatenated
// statements — shard boundaries and merge order leave no trace.
func MergeShardTrees(shards []ShardTree) ShardTree {
	in := namepath.NewInterner()
	tree := fptree.New()
	total := 0
	for _, sh := range shards {
		if sh.Tree == nil || sh.Tree.Size() == 0 {
			total += sh.Transactions
			continue
		}
		idMap := make([]int32, len(sh.Items))
		for local, p := range sh.Items {
			idMap[local] = int32(in.Intern(p))
		}
		tree.MergeMapped(sh.Tree, func(item int32) int32 { return idMap[item] })
		total += sh.Transactions
	}
	out := ShardTree{Tree: tree, Transactions: total}
	out.Items = make([]namepath.Path, in.Len())
	for i := range out.Items {
		out.Items[i] = in.Path(i)
	}
	return out
}

// Grow runs Algorithm 2 over a (possibly merged) shard tree: it walks the
// FP tree, emits candidate patterns for every transaction-ending node,
// aggregates equal patterns, applies the MinPatternCount support
// threshold, and returns the candidates in ascending key order. The
// output depends only on the tree's canonical form, never on its arena
// layout or item-id assignment.
func Grow(st ShardTree, t pattern.Type, pairs *confusion.PairSet, cfg Config) []*pattern.Pattern {
	deductLen := 1
	if t == pattern.Consistency {
		deductLen = 2
	}
	byKey := make(map[string]*pattern.Pattern)
	st.Tree.Walk(func(n *fptree.Node, stack []int) {
		if !n.IsLast || len(stack) < deductLen {
			return
		}
		deduct := make([]namepath.Path, deductLen)
		for i := 0; i < deductLen; i++ {
			deduct[i] = st.Items[stack[len(stack)-deductLen+i]]
		}
		if !validDeduction(deduct, t, pairs) {
			return
		}
		conds := stack[:len(stack)-deductLen]
		if cfg.MaxConditionPaths > 0 && len(conds) > cfg.MaxConditionPaths {
			conds = conds[len(conds)-cfg.MaxConditionPaths:]
		}
		for _, subset := range combinations(conds, cfg.MaxCombinationsPerNode) {
			cond := make([]namepath.Path, len(subset))
			for i, id := range subset {
				cond[i] = st.Items[id]
			}
			p := &pattern.Pattern{Type: t, Condition: cond, Deduction: deduct, Count: int(n.Count)}
			k := p.Key()
			if prev, ok := byKey[k]; ok {
				prev.Count += int(n.Count)
			} else {
				byKey[k] = p
			}
		}
	})

	var candidates []*pattern.Pattern
	for _, p := range byKey {
		if p.Count >= cfg.MinPatternCount {
			candidates = append(candidates, p)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Key() < candidates[j].Key() })
	return candidates
}

// CountPaths is the sharded pass 1 of Algorithm 1: each worker counts
// path occurrences over a contiguous statement range into a private map,
// and the per-shard maps are folded together in shard order. The counts
// of disjoint statement sets merge by plain addition, which is what the
// map/reduce driver's count-reduce step does across corpus shards.
func CountPaths(stmts []*pattern.Statement, workers int) map[string]int {
	shards := parallel.Shards(len(stmts), workers)
	if len(shards) == 0 {
		return make(map[string]int)
	}
	parts := make([]map[string]int, len(shards))
	parallel.ForEachShard(len(stmts), workers, func(shard, lo, hi int) {
		local := make(map[string]int)
		for _, s := range stmts[lo:hi] {
			for _, p := range s.Paths {
				local[p.Key()]++
			}
		}
		parts[shard] = local
	})
	freq := parts[0]
	for _, part := range parts[1:] {
		for k, n := range part {
			freq[k] += n
		}
	}
	return freq
}

// PruneUncommon implements Algorithm 1 line 9: counts matches and
// satisfactions for every candidate over the dataset and keeps patterns
// whose satisfaction/match ratio is at least minRatio. Match and satisfy
// counts are recorded on the surviving patterns (features 6 and 12).
//
// It counts through the Index detection uses: the statements are split
// into contiguous shards across `workers` goroutines (0 = all CPUs,
// 1 = serial), and each shard walks its statements through the index,
// checks every candidate once with Statement.Check and counts into its
// own array, indexed by the candidate's input position. The arrays are
// summed in shard order and the filter runs in candidate order, so
// output is identical at any degree.
func PruneUncommon(candidates []*pattern.Pattern, stmts []*pattern.Statement,
	minRatio float64, workers int) []*pattern.Pattern {

	idx := NewIndex(candidates) // also warms every Key before the shards share them
	workers = parallel.Degree(workers)
	type stat struct{ matches, satisfies int32 }
	parts := make([][]stat, len(parallel.Shards(len(stmts), workers)))
	parallel.ForEachShard(len(stmts), workers, func(shard, lo, hi int) {
		stats := make([]stat, len(candidates))
		var buf []Candidate
		for _, s := range stmts[lo:hi] {
			buf = idx.AppendCandidates(buf[:0], s)
			for _, e := range buf {
				if matched, satisfied, _, _ := s.Check(e.Pattern); matched {
					stats[e.Pos].matches++
					if satisfied {
						stats[e.Pos].satisfies++
					}
				}
			}
		}
		parts[shard] = stats
	})
	var out []*pattern.Pattern
	for i, p := range candidates {
		var matches, satisfies int
		for _, stats := range parts {
			matches += int(stats[i].matches)
			satisfies += int(stats[i].satisfies)
		}
		if matches == 0 || float64(satisfies)/float64(matches) < minRatio {
			continue
		}
		p.MatchCount = matches
		p.SatisfyCount = satisfies
		out = append(out, p)
	}
	return out
}

type split struct {
	cond   []namepath.Path
	deduct []namepath.Path
}

// splitPaths enumerates the ways to split a statement's paths into
// condition and deduction (Algorithm 1 line 6). For consistency patterns
// the deduction is any pair of paths with equal end subtokens and distinct
// prefixes (ends replaced by ϵ); for confusing-word patterns it is any
// single path whose end is the correct word of a mined pair.
func splitPaths(paths []namepath.Path, t pattern.Type, pairs *confusion.PairSet) []split {
	var out []split
	switch t {
	case pattern.Consistency:
		for i := 0; i < len(paths); i++ {
			for j := i + 1; j < len(paths); j++ {
				if paths[i].End != paths[j].End || paths[i].Same(paths[j]) {
					continue
				}
				var cond []namepath.Path
				for k, p := range paths {
					if k != i && k != j {
						cond = append(cond, p)
					}
				}
				out = append(out, split{
					cond:   cond,
					deduct: []namepath.Path{paths[i].WithEnd(namepath.Epsilon), paths[j].WithEnd(namepath.Epsilon)},
				})
			}
		}
	case pattern.ConfusingWord:
		if pairs == nil {
			return nil
		}
		for i, p := range paths {
			if !pairs.IsCorrectWord(p.End) {
				continue
			}
			var cond []namepath.Path
			for k, q := range paths {
				if k != i {
					cond = append(cond, q)
				}
			}
			out = append(out, split{cond: cond, deduct: []namepath.Path{p}})
		}
	}
	return out
}

func validDeduction(deduct []namepath.Path, t pattern.Type, pairs *confusion.PairSet) bool {
	switch t {
	case pattern.Consistency:
		return len(deduct) == 2 && deduct[0].Symbolic() && deduct[1].Symbolic()
	case pattern.ConfusingWord:
		return len(deduct) == 1 && !deduct[0].Symbolic() &&
			(pairs == nil || pairs.IsCorrectWord(deduct[0].End))
	}
	return false
}

// sortItems orders condition items by descending dataset frequency — the
// standard FP-tree ordering that maximizes prefix sharing — with ties
// broken by ascending path key. The tie-break is deliberately id-free:
// interner ids depend on which statements a process has seen and in what
// order, while the (frequency, key) order is a property of the dataset
// alone, so every shard of a distributed mine sorts identically. freq is
// the dense per-id frequency table built during interning; keys come
// memoized from the interner's path table, so ties cost a map-free string
// compare.
func sortItems(items []int32, freq []int, in *namepath.Interner) {
	sort.Slice(items, func(i, j int) bool {
		fi, fj := freq[items[i]], freq[items[j]]
		if fi != fj {
			return fi > fj
		}
		return in.Path(int(items[i])).Key() < in.Path(int(items[j])).Key()
	})
}

// sortByKey orders deduction items by ascending path key (canonical and
// id-free, see sortItems). Deductions are one or two items, so this is at
// most a single compare-and-swap.
func sortByKey(items []int32, in *namepath.Interner) {
	if len(items) <= 1 {
		return
	}
	if len(items) == 2 {
		if in.Path(int(items[1])).Key() < in.Path(int(items[0])).Key() {
			items[0], items[1] = items[1], items[0]
		}
		return
	}
	sort.Slice(items, func(i, j int) bool {
		return in.Path(int(items[i])).Key() < in.Path(int(items[j])).Key()
	})
}

// combinations enumerates condition subsets (Algorithm 2 line 7). The full
// set is always emitted first; when the powerset is within maxOut, all
// non-full subsets (including the empty condition) follow.
func combinations(items []int, maxOut int) [][]int {
	full := append([]int(nil), items...)
	out := [][]int{full}
	if maxOut <= 1 || len(items) == 0 {
		return out
	}
	total := 1 << uint(len(items))
	if total > maxOut {
		return out
	}
	for mask := 0; mask < total-1; mask++ { // total-1 == full set, already emitted
		var subset []int
		for i := range items {
			if mask&(1<<uint(i)) != 0 {
				subset = append(subset, items[i])
			}
		}
		out = append(out, subset)
	}
	return out
}

// Index is the candidate index that detection and pruning share. A
// pattern can only match a statement that contains its deduction
// prefixes (Definition 3.6), so each pattern is filed under the prefix
// key of its first deduction path; patterns without a deduction are
// never candidates. Building the index ranks every pattern in ascending
// Key order, ties broken by input position, and fills each bucket in
// rank order, so a lookup orders its result with integer comparisons
// only. A built Index is immutable and safe for concurrent readers.
type Index struct {
	byPrefix map[string][]Candidate
}

// Candidate is one index entry: a pattern, its position in the slice
// NewIndex was given, and its rank.
type Candidate struct {
	Pattern *pattern.Pattern
	Pos     int32
	rank    int32
}

// NewIndex indexes patterns by their first deduction prefix key. It also
// warms every pattern's Key cache, so the patterns can subsequently be
// shared across scan workers without synchronization.
func NewIndex(patterns []*pattern.Pattern) *Index {
	order := make([]int32, len(patterns))
	for i, p := range patterns {
		p.Key()
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return strings.Compare(patterns[a].Key(), patterns[b].Key())
	})
	idx := &Index{byPrefix: make(map[string][]Candidate)}
	for rank, pos := range order {
		p := patterns[pos]
		if len(p.Deduction) == 0 {
			continue
		}
		k := p.Deduction[0].PrefixKey()
		idx.byPrefix[k] = append(idx.byPrefix[k], Candidate{Pattern: p, Pos: pos, rank: int32(rank)})
	}
	return idx
}

// AppendCandidates appends to buf the entries whose deduction prefix
// occurs in the statement, each once, in ascending rank (Key) order, and
// returns the extended buffer. Each pattern lives in exactly one bucket,
// so a statement prefix whose bucket was gathered already is skipped: its
// first entry is among the entries gathered so far. This holds for any
// number of paths. A caller that reuses buf looks statements up without
// allocating once buf has grown to fit.
func (idx *Index) AppendCandidates(buf []Candidate, s *pattern.Statement) []Candidate {
	start := len(buf)
	for _, p := range s.Paths {
		bucket := idx.byPrefix[p.PrefixKey()]
		if len(bucket) == 0 || slices.ContainsFunc(buf[start:], func(e Candidate) bool { return e.rank == bucket[0].rank }) {
			continue
		}
		buf = append(buf, bucket...)
	}
	slices.SortFunc(buf[start:], func(a, b Candidate) int { return cmp.Compare(a.rank, b.rank) })
	return buf
}

// Candidates returns the patterns whose deduction prefix occurs in the
// statement, without duplicates, in ascending pattern-Key order.
func (idx *Index) Candidates(s *pattern.Statement) []*pattern.Pattern {
	es := idx.AppendCandidates(nil, s)
	out := make([]*pattern.Pattern, len(es))
	for i, e := range es {
		out[i] = e.Pattern
	}
	return out
}
