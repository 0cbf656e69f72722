// Package great reimplements the Great baseline of §5.6 (Hellendoorn et
// al., "Global Relational Models of Source Code"): a transformer whose
// attention logits are biased by program-graph relations, with pointer
// heads for variable-misuse localization and repair. Dimensions are scaled
// down to run on CPU (see DESIGN.md); the architecture — relation-biased
// multi-layer self-attention with residual feed-forward blocks and
// candidate pointer scoring — follows the original.
package great

import (
	"math"
	"math/rand"

	"namer/internal/graphs"
	"namer/internal/neural"
	"namer/internal/synthetic"
)

// Config sizes the network.
type Config struct {
	VocabSize int
	Dim       int // hidden size (default 24)
	Layers    int // transformer layers (paper: 6-10; default 2)
	Seed      int64
}

type layer struct {
	wq, wk, wv, wo *neural.Tensor
	relBias        [graphs.NumEdgeTypes]*neural.Tensor
	ff1, fb1       *neural.Tensor
	ff2, fb2       *neural.Tensor
}

// Model is a trained or trainable Great network.
type Model struct {
	cfg    Config
	params *neural.Params
	emb    *neural.Tensor
	layers []*layer
	scoreW *neural.Tensor
}

// New builds a model with randomly initialized parameters.
func New(cfg Config) *Model {
	if cfg.Dim <= 0 {
		cfg.Dim = 24
	}
	if cfg.Layers <= 0 {
		cfg.Layers = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 300))
	p := neural.NewParams()
	m := &Model{cfg: cfg, params: p}
	d := cfg.Dim
	m.emb = p.New(cfg.VocabSize, d, rng)
	for l := 0; l < cfg.Layers; l++ {
		ly := &layer{
			wq: p.New(d, d, rng), wk: p.New(d, d, rng),
			wv: p.New(d, d, rng), wo: p.New(d, d, rng),
			ff1: p.New(d, 2*d, rng), fb1: p.NewZero(1, 2*d),
			ff2: p.New(2*d, d, rng), fb2: p.NewZero(1, d),
		}
		for e := 0; e < int(graphs.NumEdgeTypes); e++ {
			ly.relBias[e] = p.NewZero(1, 1)
		}
		m.layers = append(m.layers, ly)
	}
	m.scoreW = p.New(d, d, rng)
	return m
}

// edgeMask builds the flattened N×N indicator matrix for one edge type.
func edgeMask(g *graphs.Graph, e int) []float64 {
	n := g.N()
	mask := make([]float64, n*n)
	for _, ed := range g.Edges[e] {
		mask[ed[0]*n+ed[1]] = 1
	}
	return mask
}

// forward computes candidate logits (1×K) for a sample.
func (m *Model) forward(t *neural.Tape, s *synthetic.Sample) *neural.Tensor {
	g := s.G
	h := t.Rows(m.emb, g.Vals)
	scale := 1 / math.Sqrt(float64(m.cfg.Dim))
	for _, ly := range m.layers {
		q := t.MatMul(h, ly.wq)
		k := t.MatMul(h, ly.wk)
		v := t.MatMul(h, ly.wv)
		logits := t.Scale(t.MatMulT(q, k), scale)
		for e := 0; e < int(graphs.NumEdgeTypes); e++ {
			if len(g.Edges[e]) == 0 {
				continue
			}
			logits = t.AddMaskScaled(logits, edgeMask(g, e), ly.relBias[e])
		}
		attn := t.SoftmaxRows(logits)
		h = t.Add(h, t.MatMul(t.MatMul(attn, v), ly.wo))
		ff := t.AddBias(t.MatMul(t.ReLU(t.AddBias(t.MatMul(h, ly.ff1), ly.fb1)), ly.ff2), ly.fb2)
		h = t.Add(h, ff)
	}
	slotH := t.Rows(h, []int{s.Slot})
	qv := t.MatMul(slotH, m.scoreW)
	cands := t.Rows(m.emb, s.CandIDs)
	return t.MatMulT(qv, cands)
}

// Train runs epochs of per-sample Adam updates and returns the mean loss
// of each epoch.
func (m *Model) Train(samples []*synthetic.Sample, epochs int, lr float64) []float64 {
	rng := rand.New(rand.NewSource(m.cfg.Seed + 400))
	var losses []float64
	for ep := 0; ep < epochs; ep++ {
		perm := rng.Perm(len(samples))
		total := 0.0
		for _, i := range perm {
			s := samples[i]
			if s.Correct < 0 {
				continue
			}
			m.params.ZeroGrad()
			tape := neural.NewTape()
			logits := m.forward(tape, s)
			loss := tape.SoftmaxCrossEntropy(logits, s.Correct)
			neural.SeedGrad(loss)
			tape.Backward()
			m.params.AdamStep(lr)
			total += loss.W[0]
		}
		losses = append(losses, total/float64(len(samples)))
	}
	return losses
}

// Score implements synthetic.Scorer.
func (m *Model) Score(s *synthetic.Sample) []float64 {
	tape := neural.NewTape()
	logits := m.forward(tape, s)
	out := make([]float64, logits.C)
	copy(out, logits.W)
	return out
}
