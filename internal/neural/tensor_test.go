package neural

import (
	"math"
	"math/rand"
	"testing"
)

// numericGrad checks the analytic gradient of a scalar-valued function
// against central finite differences.
func numericGrad(t *testing.T, name string, inputs []*Tensor, forward func(tape *Tape) *Tensor) {
	t.Helper()
	// Analytic.
	for _, in := range inputs {
		in.ZeroGrad()
	}
	tape := NewTape()
	loss := forward(tape)
	if loss.R != 1 || loss.C != 1 {
		t.Fatalf("%s: forward must return a scalar", name)
	}
	SeedGrad(loss)
	tape.Backward()
	analytic := make([][]float64, len(inputs))
	for i, in := range inputs {
		analytic[i] = append([]float64(nil), in.G...)
	}
	// Numeric.
	const eps = 1e-5
	for i, in := range inputs {
		for j := range in.W {
			orig := in.W[j]
			in.W[j] = orig + eps
			lp := forward(NewTape()).W[0]
			in.W[j] = orig - eps
			lm := forward(NewTape()).W[0]
			in.W[j] = orig
			num := (lp - lm) / (2 * eps)
			if diff := math.Abs(num - analytic[i][j]); diff > 1e-4*(1+math.Abs(num)) {
				t.Errorf("%s: input %d elem %d: numeric %g vs analytic %g",
					name, i, j, num, analytic[i][j])
			}
		}
	}
}

func randTensor(r, c int, rng *rand.Rand) *Tensor {
	t := NewTensor(r, c)
	for i := range t.W {
		t.W[i] = rng.NormFloat64()
	}
	return t
}

// sumAll reduces any tensor to a scalar for gradient checking.
func sumAll(tape *Tape, a *Tensor) *Tensor {
	ones := NewTensor(a.C, 1)
	for i := range ones.W {
		ones.W[i] = 1
	}
	col := tape.MatMul(a, ones) // R×1
	onesR := NewTensor(1, a.R)
	for i := range onesR.W {
		onesR.W[i] = 1
	}
	return tape.MatMul(onesR, col)
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(3, 4, rng)
	b := randTensor(4, 2, rng)
	numericGrad(t, "matmul", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.Mul(tp.MatMul(a, b), tp.MatMul(a, b)))
	})
}

func TestGradMatMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(3, 4, rng)
	b := randTensor(5, 4, rng)
	numericGrad(t, "matmulT", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.Tanh(tp.MatMulT(a, b)))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor(2, 5, rng)
	numericGrad(t, "sigmoid", []*Tensor{a}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.Sigmoid(a))
	})
	numericGrad(t, "tanh", []*Tensor{a}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.Tanh(a))
	})
	numericGrad(t, "relu", []*Tensor{a}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.Mul(tp.ReLU(a), tp.ReLU(a)))
	})
	numericGrad(t, "oneminus", []*Tensor{a}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.Mul(tp.OneMinus(a), a))
	})
}

func TestGradAddBiasAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randTensor(3, 4, rng)
	b := randTensor(1, 4, rng)
	numericGrad(t, "addbias", []*Tensor{a, b}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.Tanh(tp.AddBias(a, b)))
	})
	numericGrad(t, "scale", []*Tensor{a}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.Scale(tp.Sigmoid(a), 2.5))
	})
}

func TestGradSoftmaxRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randTensor(3, 4, rng)
	w := randTensor(3, 4, rng) // weighting to break symmetry
	numericGrad(t, "softmaxrows", []*Tensor{a}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.Mul(tp.SoftmaxRows(a), w))
	})
}

func TestGradSoftmaxCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randTensor(1, 6, rng)
	numericGrad(t, "sce", []*Tensor{a}, func(tp *Tape) *Tensor {
		return tp.SoftmaxCrossEntropy(a, 2)
	})
}

func TestGradRowsAndAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	emb := randTensor(5, 3, rng)
	numericGrad(t, "rows", []*Tensor{emb}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.Tanh(tp.Rows(emb, []int{1, 3, 1})))
	})
	h := randTensor(4, 3, rng)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 0}}
	numericGrad(t, "aggregate", []*Tensor{h}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.Tanh(tp.Aggregate(h, edges)))
	})
}

func TestGradMaskScaledAndConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := randTensor(3, 3, rng)
	scalar := randTensor(1, 1, rng)
	mask := []float64{1, 0, 0, 0, 1, 0, 1, 0, 1}
	numericGrad(t, "maskscaled", []*Tensor{logits, scalar}, func(tp *Tape) *Tensor {
		return sumAll(tp, tp.SoftmaxRows(tp.AddMaskScaled(logits, mask, scalar)))
	})
}

func TestAdamConvergesOnRegression(t *testing.T) {
	// Fit y = 2x - 1 with a single linear unit.
	rng := rand.New(rand.NewSource(9))
	params := NewParams()
	w := params.New(1, 1, rng)
	b := params.NewZero(1, 1)
	for step := 0; step < 400; step++ {
		params.ZeroGrad()
		x := rng.NormFloat64()
		target := 2*x - 1
		tape := NewTape()
		xt := NewTensor(1, 1)
		xt.W[0] = x
		pred := tape.Add(tape.MatMul(xt, w), b)
		diff := NewTensor(1, 1)
		diff.W[0] = -target
		loss := tape.Mul(tape.Add(pred, diff), tape.Add(pred, diff))
		SeedGrad(loss)
		tape.Backward()
		params.AdamStep(0.05)
	}
	if math.Abs(w.W[0]-2) > 0.2 || math.Abs(b.W[0]+1) > 0.2 {
		t.Errorf("w=%.3f b=%.3f, want 2 and -1", w.W[0], b.W[0])
	}
}

func TestParamsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := NewParams()
	p.New(3, 4, rng)
	p.NewZero(1, 4)
	if p.Count() != 16 {
		t.Errorf("Count = %d, want 16", p.Count())
	}
}
