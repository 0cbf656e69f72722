// Package neural is a small tape-based reverse-mode automatic
// differentiation library with the layers needed to reproduce the paper's
// deep-learning baselines (§5.6): embeddings, GRU cells for the GGNN, and
// relation-biased multi-head attention for Great, trained with Adam.
package neural

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major matrix with a gradient buffer.
type Tensor struct {
	R, C int
	W    []float64 // values
	G    []float64 // gradients
}

// NewTensor returns a zero tensor.
func NewTensor(r, c int) *Tensor {
	return &Tensor{R: r, C: c, W: make([]float64, r*c), G: make([]float64, r*c)}
}

// At returns element (i, j).
func (t *Tensor) At(i, j int) float64 { return t.W[i*t.C+j] }

// Set assigns element (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.W[i*t.C+j] = v }

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.G {
		t.G[i] = 0
	}
}

// Params owns trainable tensors and their Adam state.
type Params struct {
	Tensors []*Tensor
	m, v    [][]float64
	step    int
}

// NewParams returns an empty parameter set.
func NewParams() *Params { return &Params{} }

// New allocates a trainable tensor with Xavier-style initialization.
func (p *Params) New(r, c int, rng *rand.Rand) *Tensor {
	t := NewTensor(r, c)
	scale := math.Sqrt(2.0 / float64(r+c))
	for i := range t.W {
		t.W[i] = rng.NormFloat64() * scale
	}
	p.register(t)
	return t
}

// NewZero allocates a trainable zero tensor (biases).
func (p *Params) NewZero(r, c int) *Tensor {
	t := NewTensor(r, c)
	p.register(t)
	return t
}

func (p *Params) register(t *Tensor) {
	p.Tensors = append(p.Tensors, t)
	p.m = append(p.m, make([]float64, len(t.W)))
	p.v = append(p.v, make([]float64, len(t.W)))
}

// ZeroGrad clears all parameter gradients.
func (p *Params) ZeroGrad() {
	for _, t := range p.Tensors {
		t.ZeroGrad()
	}
}

// AdamStep applies one Adam update with the given learning rate.
func (p *Params) AdamStep(lr float64) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
		clip  = 5.0
	)
	p.step++
	bc1 := 1 - math.Pow(beta1, float64(p.step))
	bc2 := 1 - math.Pow(beta2, float64(p.step))
	for k, t := range p.Tensors {
		for i, g := range t.G {
			if g > clip {
				g = clip
			} else if g < -clip {
				g = -clip
			}
			p.m[k][i] = beta1*p.m[k][i] + (1-beta1)*g
			p.v[k][i] = beta2*p.v[k][i] + (1-beta2)*g*g
			mHat := p.m[k][i] / bc1
			vHat := p.v[k][i] / bc2
			t.W[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
		}
	}
}

// Count returns the number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, t := range p.Tensors {
		n += len(t.W)
	}
	return n
}

// Tape records the forward computation and replays it backward.
type Tape struct {
	backward []func()
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Backward runs all recorded backward closures in reverse order. The
// caller seeds the loss gradient first (see SeedGrad).
func (t *Tape) Backward() {
	for i := len(t.backward) - 1; i >= 0; i-- {
		t.backward[i]()
	}
}

// SeedGrad sets the gradient of a scalar loss tensor to 1.
func SeedGrad(loss *Tensor) {
	if len(loss.G) > 0 {
		loss.G[0] = 1
	}
}

func (t *Tape) push(fn func()) { t.backward = append(t.backward, fn) }

func assertDims(cond bool, format string, args ...any) {
	if !cond {
		panic("neural: " + fmt.Sprintf(format, args...))
	}
}

// MatMul returns a × b.
func (t *Tape) MatMul(a, b *Tensor) *Tensor {
	assertDims(a.C == b.R, "MatMul %dx%d × %dx%d", a.R, a.C, b.R, b.C)
	out := NewTensor(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for k := 0; k < a.C; k++ {
			av := a.W[i*a.C+k]
			if av == 0 {
				continue
			}
			for j := 0; j < b.C; j++ {
				out.W[i*out.C+j] += av * b.W[k*b.C+j]
			}
		}
	}
	t.push(func() {
		for i := 0; i < a.R; i++ {
			for j := 0; j < b.C; j++ {
				g := out.G[i*out.C+j]
				if g == 0 {
					continue
				}
				for k := 0; k < a.C; k++ {
					a.G[i*a.C+k] += g * b.W[k*b.C+j]
					b.G[k*b.C+j] += g * a.W[i*a.C+k]
				}
			}
		}
	})
	return out
}

// MatMulT returns a × bᵀ.
func (t *Tape) MatMulT(a, b *Tensor) *Tensor {
	assertDims(a.C == b.C, "MatMulT %dx%d × (%dx%d)ᵀ", a.R, a.C, b.R, b.C)
	out := NewTensor(a.R, b.R)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.R; j++ {
			s := 0.0
			for k := 0; k < a.C; k++ {
				s += a.W[i*a.C+k] * b.W[j*b.C+k]
			}
			out.W[i*out.C+j] = s
		}
	}
	t.push(func() {
		for i := 0; i < a.R; i++ {
			for j := 0; j < b.R; j++ {
				g := out.G[i*out.C+j]
				if g == 0 {
					continue
				}
				for k := 0; k < a.C; k++ {
					a.G[i*a.C+k] += g * b.W[j*b.C+k]
					b.G[j*b.C+k] += g * a.W[i*a.C+k]
				}
			}
		}
	})
	return out
}

// Add returns a + b (same shape).
func (t *Tape) Add(a, b *Tensor) *Tensor {
	assertDims(a.R == b.R && a.C == b.C, "Add shape mismatch")
	out := NewTensor(a.R, a.C)
	for i := range out.W {
		out.W[i] = a.W[i] + b.W[i]
	}
	t.push(func() {
		for i := range out.G {
			a.G[i] += out.G[i]
			b.G[i] += out.G[i]
		}
	})
	return out
}

// AddBias adds a 1×C bias row to every row of a.
func (t *Tape) AddBias(a, bias *Tensor) *Tensor {
	assertDims(bias.R == 1 && bias.C == a.C, "AddBias shape mismatch")
	out := NewTensor(a.R, a.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			out.W[i*a.C+j] = a.W[i*a.C+j] + bias.W[j]
		}
	}
	t.push(func() {
		for i := 0; i < a.R; i++ {
			for j := 0; j < a.C; j++ {
				g := out.G[i*a.C+j]
				a.G[i*a.C+j] += g
				bias.G[j] += g
			}
		}
	})
	return out
}

// Mul returns the elementwise product.
func (t *Tape) Mul(a, b *Tensor) *Tensor {
	assertDims(a.R == b.R && a.C == b.C, "Mul shape mismatch")
	out := NewTensor(a.R, a.C)
	for i := range out.W {
		out.W[i] = a.W[i] * b.W[i]
	}
	t.push(func() {
		for i := range out.G {
			a.G[i] += out.G[i] * b.W[i]
			b.G[i] += out.G[i] * a.W[i]
		}
	})
	return out
}

// Scale returns a * s for a constant scalar.
func (t *Tape) Scale(a *Tensor, s float64) *Tensor {
	out := NewTensor(a.R, a.C)
	for i := range out.W {
		out.W[i] = a.W[i] * s
	}
	t.push(func() {
		for i := range out.G {
			a.G[i] += out.G[i] * s
		}
	})
	return out
}

// OneMinus returns 1 - a.
func (t *Tape) OneMinus(a *Tensor) *Tensor {
	out := NewTensor(a.R, a.C)
	for i := range out.W {
		out.W[i] = 1 - a.W[i]
	}
	t.push(func() {
		for i := range out.G {
			a.G[i] -= out.G[i]
		}
	})
	return out
}

// Sigmoid applies the logistic function elementwise.
func (t *Tape) Sigmoid(a *Tensor) *Tensor {
	out := NewTensor(a.R, a.C)
	for i := range out.W {
		out.W[i] = 1 / (1 + math.Exp(-a.W[i]))
	}
	t.push(func() {
		for i := range out.G {
			a.G[i] += out.G[i] * out.W[i] * (1 - out.W[i])
		}
	})
	return out
}

// Tanh applies tanh elementwise.
func (t *Tape) Tanh(a *Tensor) *Tensor {
	out := NewTensor(a.R, a.C)
	for i := range out.W {
		out.W[i] = math.Tanh(a.W[i])
	}
	t.push(func() {
		for i := range out.G {
			a.G[i] += out.G[i] * (1 - out.W[i]*out.W[i])
		}
	})
	return out
}

// ReLU applies max(0, x) elementwise.
func (t *Tape) ReLU(a *Tensor) *Tensor {
	out := NewTensor(a.R, a.C)
	for i := range out.W {
		if a.W[i] > 0 {
			out.W[i] = a.W[i]
		}
	}
	t.push(func() {
		for i := range out.G {
			if a.W[i] > 0 {
				a.G[i] += out.G[i]
			}
		}
	})
	return out
}

// Rows gathers rows of a by index (embedding lookup).
func (t *Tape) Rows(a *Tensor, idx []int) *Tensor {
	out := NewTensor(len(idx), a.C)
	for i, id := range idx {
		assertDims(id >= 0 && id < a.R, "Rows index %d out of %d", id, a.R)
		copy(out.W[i*a.C:(i+1)*a.C], a.W[id*a.C:(id+1)*a.C])
	}
	t.push(func() {
		for i, id := range idx {
			for j := 0; j < a.C; j++ {
				a.G[id*a.C+j] += out.G[i*a.C+j]
			}
		}
	})
	return out
}

// Aggregate sums source rows of h into destination rows over directed
// edges (message passing). Output row d receives the sum of h rows s for
// every edge (s, d).
func (t *Tape) Aggregate(h *Tensor, edges [][2]int) *Tensor {
	out := NewTensor(h.R, h.C)
	for _, e := range edges {
		s, d := e[0], e[1]
		for j := 0; j < h.C; j++ {
			out.W[d*h.C+j] += h.W[s*h.C+j]
		}
	}
	t.push(func() {
		for _, e := range edges {
			s, d := e[0], e[1]
			for j := 0; j < h.C; j++ {
				h.G[s*h.C+j] += out.G[d*h.C+j]
			}
		}
	})
	return out
}

// AddMaskScaled returns logits + scalar·mask where mask is a constant
// matrix (flattened, same shape) and scalar is a trainable 1×1 tensor —
// the relation-bias term of Great's attention.
func (t *Tape) AddMaskScaled(logits *Tensor, mask []float64, scalar *Tensor) *Tensor {
	assertDims(len(mask) == len(logits.W), "AddMaskScaled mask size")
	assertDims(scalar.R == 1 && scalar.C == 1, "AddMaskScaled scalar shape")
	out := NewTensor(logits.R, logits.C)
	s := scalar.W[0]
	for i := range out.W {
		out.W[i] = logits.W[i] + s*mask[i]
	}
	t.push(func() {
		for i := range out.G {
			logits.G[i] += out.G[i]
			scalar.G[0] += out.G[i] * mask[i]
		}
	})
	return out
}

// SoftmaxRows applies a row-wise softmax.
func (t *Tape) SoftmaxRows(a *Tensor) *Tensor {
	out := NewTensor(a.R, a.C)
	for i := 0; i < a.R; i++ {
		maxV := math.Inf(-1)
		for j := 0; j < a.C; j++ {
			if a.W[i*a.C+j] > maxV {
				maxV = a.W[i*a.C+j]
			}
		}
		sum := 0.0
		for j := 0; j < a.C; j++ {
			e := math.Exp(a.W[i*a.C+j] - maxV)
			out.W[i*a.C+j] = e
			sum += e
		}
		for j := 0; j < a.C; j++ {
			out.W[i*a.C+j] /= sum
		}
	}
	t.push(func() {
		for i := 0; i < a.R; i++ {
			dot := 0.0
			for j := 0; j < a.C; j++ {
				dot += out.G[i*a.C+j] * out.W[i*a.C+j]
			}
			for j := 0; j < a.C; j++ {
				a.G[i*a.C+j] += out.W[i*a.C+j] * (out.G[i*a.C+j] - dot)
			}
		}
	})
	return out
}

// SoftmaxCrossEntropy treats a 1×K tensor as logits and returns the scalar
// cross-entropy loss against the target index.
func (t *Tape) SoftmaxCrossEntropy(logits *Tensor, target int) *Tensor {
	assertDims(logits.R == 1, "SoftmaxCrossEntropy needs a row vector")
	assertDims(target >= 0 && target < logits.C, "target out of range")
	probs := make([]float64, logits.C)
	maxV := math.Inf(-1)
	for _, v := range logits.W {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for j, v := range logits.W {
		probs[j] = math.Exp(v - maxV)
		sum += probs[j]
	}
	for j := range probs {
		probs[j] /= sum
	}
	out := NewTensor(1, 1)
	out.W[0] = -math.Log(probs[target] + 1e-12)
	t.push(func() {
		g := out.G[0]
		for j := range probs {
			d := probs[j]
			if j == target {
				d -= 1
			}
			logits.G[j] += g * d
		}
	})
	return out
}
