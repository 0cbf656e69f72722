package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthData builds a linearly separable-ish two-class dataset.
func synthData(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	var X [][]float64
	var y []int
	for i := 0; i < n; i++ {
		c := i % 2
		base := -1.5
		if c == 1 {
			base = 1.5
		}
		X = append(X, []float64{
			base + rng.NormFloat64(),
			2*base + rng.NormFloat64(),
			rng.NormFloat64(), // noise feature
		})
		y = append(y, c)
	}
	return X, y
}

func trainAccuracy(m Classifier, X [][]float64, y []int) float64 {
	correct := 0
	for i, x := range X {
		if m.Predict(x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}

func TestLinearSVM(t *testing.T) {
	X, y := synthData(200, 7)
	m := &LinearSVM{Epochs: 100, Seed: 7}
	m.Fit(X, y)
	if acc := trainAccuracy(m, X, y); acc < 0.9 {
		t.Errorf("SVM train accuracy = %.2f, want >= 0.9", acc)
	}
	if len(m.Weights()) != 3 {
		t.Error("weights missing")
	}
}

func TestLogisticRegression(t *testing.T) {
	X, y := synthData(200, 8)
	m := &LogisticRegression{Epochs: 100, Seed: 8}
	m.Fit(X, y)
	if acc := trainAccuracy(m, X, y); acc < 0.9 {
		t.Errorf("logreg train accuracy = %.2f, want >= 0.9", acc)
	}
	p := m.Probability(X[0])
	if p < 0 || p > 1 {
		t.Errorf("probability out of range: %f", p)
	}
}

func TestLDA(t *testing.T) {
	X, y := synthData(200, 9)
	m := &LDA{}
	m.Fit(X, y)
	if acc := trainAccuracy(m, X, y); acc < 0.9 {
		t.Errorf("LDA train accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestStandardizer(t *testing.T) {
	X := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	var s Standardizer
	s.Fit(X)
	Z := s.TransformAll(X)
	for j := 0; j < 2; j++ {
		mean, variance := 0.0, 0.0
		for _, z := range Z {
			mean += z[j]
		}
		mean /= 3
		for _, z := range Z {
			variance += (z[j] - mean) * (z[j] - mean)
		}
		variance /= 3
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-9 {
			t.Errorf("feature %d: mean=%g var=%g", j, mean, variance)
		}
	}
	// Constant feature does not divide by zero.
	var s2 Standardizer
	s2.Fit([][]float64{{5}, {5}, {5}})
	out := s2.Transform([]float64{5})
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Error("constant feature produced NaN/Inf")
	}
}

func TestJacobiEigen(t *testing.T) {
	// Known symmetric matrix: eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs := JacobiEigen(a, 50)
	if math.Abs(vals[0]-3) > 1e-9 || math.Abs(vals[1]-1) > 1e-9 {
		t.Errorf("eigenvalues = %v, want [3 1]", vals)
	}
	// A·v = λ·v for the first eigenvector.
	v := []float64{vecs.At(0, 0), vecs.At(1, 0)}
	av := []float64{2*v[0] + v[1], v[0] + 2*v[1]}
	for i := range v {
		if math.Abs(av[i]-3*v[i]) > 1e-9 {
			t.Errorf("A·v != λ·v at %d: %g vs %g", i, av[i], 3*v[i])
		}
	}
}

func TestInvert(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	inv := Invert(a, 0)
	prod := a.Mul(inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-9 {
				t.Errorf("A·A⁻¹[%d][%d] = %g", i, j, prod.At(i, j))
			}
		}
	}
}

func TestPCAReducesAndReconstructs(t *testing.T) {
	// Data on a line in 3D: one dominant component.
	var X [][]float64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		tv := rng.NormFloat64()
		X = append(X, []float64{tv, 2 * tv, -tv + 0.01*rng.NormFloat64()})
	}
	p := PCA{K: 1}
	p.Fit(X)
	z := p.Transform(X[0])
	if len(z) != 1 {
		t.Fatalf("PCA output dim = %d, want 1", len(z))
	}
	// BackProject shape.
	w := p.BackProject([]float64{1})
	if len(w) != 3 {
		t.Errorf("BackProject dim = %d, want 3", len(w))
	}
}

func TestPipelineWithPCA(t *testing.T) {
	X, y := synthData(200, 11)
	p := &Pipeline{UsePCA: true, PCAK: 2, NewModel: func() Classifier {
		return &LinearSVM{Epochs: 100, Seed: 11}
	}}
	p.Fit(X, y)
	correct := 0
	for i, x := range X {
		if p.Predict(x) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.9 {
		t.Errorf("pipeline accuracy = %.2f", acc)
	}
	w := p.FeatureWeights()
	if len(w) != 3 {
		t.Fatalf("FeatureWeights dim = %d, want 3", len(w))
	}
	// The informative features should outweigh the noise feature.
	if math.Abs(w[2]) > math.Abs(w[0])+math.Abs(w[1]) {
		t.Errorf("noise feature dominates: %v", w)
	}
}

func TestEvaluate(t *testing.T) {
	pred := []int{1, 1, 0, 0, 1}
	gold := []int{1, 0, 0, 1, 1}
	m := Evaluate(pred, gold)
	if math.Abs(m.Accuracy-0.6) > 1e-9 {
		t.Errorf("accuracy = %g", m.Accuracy)
	}
	if math.Abs(m.Precision-2.0/3.0) > 1e-9 {
		t.Errorf("precision = %g", m.Precision)
	}
	if math.Abs(m.Recall-2.0/3.0) > 1e-9 {
		t.Errorf("recall = %g", m.Recall)
	}
	if m.F1 <= 0 {
		t.Errorf("f1 = %g", m.F1)
	}
}

func TestEvaluateProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		pred := make([]int, n)
		gold := make([]int, n)
		for i := 0; i < n; i++ {
			pred[i] = int(raw[i] % 2)
			gold[i] = int(raw[n+i] % 2)
		}
		m := Evaluate(pred, gold)
		in01 := func(v float64) bool { return v >= 0 && v <= 1.000001 }
		return in01(m.Accuracy) && in01(m.Precision) && in01(m.Recall) && in01(m.F1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCrossValidate(t *testing.T) {
	X, y := synthData(150, 13)
	mk := func() *Pipeline {
		return &Pipeline{NewModel: func() Classifier { return &LinearSVM{Epochs: 60, Seed: 13} }}
	}
	m := CrossValidate(mk, X, y, 10, 0.8, 13)
	if m.Accuracy < 0.85 {
		t.Errorf("cross-val accuracy = %.2f", m.Accuracy)
	}
	// Determinism.
	m2 := CrossValidate(mk, X, y, 10, 0.8, 13)
	if m != m2 {
		t.Error("cross-validation is not deterministic for a fixed seed")
	}
}

func TestMatrixOps(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %g", i, j, c.At(i, j))
			}
		}
	}
	at := a.T()
	if at.At(0, 1) != 3 {
		t.Error("transpose wrong")
	}
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("dot wrong")
	}
}
