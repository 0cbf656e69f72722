// Package ggnn reimplements the gated graph neural network baseline of
// §5.6 (Allamanis et al., "Learning to Represent Programs with Graphs"):
// typed message passing over program graphs with GRU node updates, scoring
// repair candidates for the variable-misuse task. Dimensions are scaled
// down to run on CPU (the substitution is documented in DESIGN.md); the
// architecture — per-edge-type linear messages, GRU state updates, pointer
// scoring of candidates — follows the original.
package ggnn

import (
	"math/rand"

	"namer/internal/graphs"
	"namer/internal/neural"
	"namer/internal/synthetic"
)

// Config sizes the network.
type Config struct {
	VocabSize int
	Dim       int // hidden size (paper: 128+; default 24)
	Steps     int // message-passing steps (paper: 8; default 2)
	Seed      int64
}

// Model is a trained or trainable GGNN.
type Model struct {
	cfg    Config
	params *neural.Params

	emb  *neural.Tensor
	msgW [graphs.NumEdgeTypes]*neural.Tensor

	wz, uz, bz *neural.Tensor
	wr, ur, br *neural.Tensor
	wh, uh, bh *neural.Tensor

	scoreW *neural.Tensor
}

// New builds a model with randomly initialized parameters.
func New(cfg Config) *Model {
	if cfg.Dim <= 0 {
		cfg.Dim = 24
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 100))
	p := neural.NewParams()
	m := &Model{cfg: cfg, params: p}
	d := cfg.Dim
	m.emb = p.New(cfg.VocabSize, d, rng)
	for e := 0; e < int(graphs.NumEdgeTypes); e++ {
		m.msgW[e] = p.New(d, d, rng)
	}
	m.wz, m.uz, m.bz = p.New(d, d, rng), p.New(d, d, rng), p.NewZero(1, d)
	m.wr, m.ur, m.br = p.New(d, d, rng), p.New(d, d, rng), p.NewZero(1, d)
	m.wh, m.uh, m.bh = p.New(d, d, rng), p.New(d, d, rng), p.NewZero(1, d)
	m.scoreW = p.New(d, d, rng)
	return m
}

// forward computes candidate logits (1×K) for a sample.
func (m *Model) forward(t *neural.Tape, s *synthetic.Sample) *neural.Tensor {
	g := s.G
	h := t.Rows(m.emb, g.Vals)
	for step := 0; step < m.cfg.Steps; step++ {
		// Typed messages summed over edge types.
		var msg *neural.Tensor
		for e := 0; e < int(graphs.NumEdgeTypes); e++ {
			edges := g.Edges[e]
			if len(edges) == 0 {
				continue
			}
			part := t.Aggregate(t.MatMul(h, m.msgW[e]), edges)
			if msg == nil {
				msg = part
			} else {
				msg = t.Add(msg, part)
			}
		}
		if msg == nil {
			msg = t.Scale(h, 0)
		}
		// GRU update.
		z := t.Sigmoid(t.AddBias(t.Add(t.MatMul(msg, m.wz), t.MatMul(h, m.uz)), m.bz))
		r := t.Sigmoid(t.AddBias(t.Add(t.MatMul(msg, m.wr), t.MatMul(h, m.ur)), m.br))
		cand := t.Tanh(t.AddBias(t.Add(t.MatMul(msg, m.wh), t.MatMul(t.Mul(r, h), m.uh)), m.bh))
		h = t.Add(t.Mul(t.OneMinus(z), h), t.Mul(z, cand))
	}
	slotH := t.Rows(h, []int{s.Slot})
	q := t.MatMul(slotH, m.scoreW)
	cands := t.Rows(m.emb, s.CandIDs)
	return t.MatMulT(q, cands)
}

// Train runs epochs of per-sample Adam updates and returns the mean loss
// of each epoch.
func (m *Model) Train(samples []*synthetic.Sample, epochs int, lr float64) []float64 {
	rng := rand.New(rand.NewSource(m.cfg.Seed + 200))
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
