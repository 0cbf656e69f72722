package ml

import (
	"math"
	"testing"
)

func TestPipelineExportRestore(t *testing.T) {
	X, y := synthData(120, 21)
	p := &Pipeline{UsePCA: true, NewModel: func() Classifier {
		return &LinearSVM{Epochs: 80, Seed: 21}
	}}
	p.Fit(X, y)

	st, err := p.Export()
	if err != nil {
		t.Fatal(err)
	}
	q := Restore(st)

	for i, x := range X {
		if p.Predict(x) != q.Predict(x) {
			t.Fatalf("prediction diverged at sample %d", i)
		}
		if math.Abs(p.Decision(x)-q.Decision(x)) > 1e-9 {
			t.Fatalf("decision value diverged at sample %d: %g vs %g",
				i, p.Decision(x), q.Decision(x))
		}
	}
}

func TestExportWithoutPCA(t *testing.T) {
	X, y := synthData(80, 22)
	p := &Pipeline{NewModel: func() Classifier {
		return &LogisticRegression{Epochs: 60, Seed: 22}
	}}
	p.Fit(X, y)
	st, err := p.Export()
	if err != nil {
		t.Fatal(err)
	}
	q := Restore(st)
	for _, x := range X[:20] {
		if p.Predict(x) != q.Predict(x) {
			t.Fatal("prediction diverged without PCA")
		}
	}
}

func TestLinearModelInterfaces(t *testing.T) {
	m := &LinearModel{W: []float64{1, -1}, B: 0.5}
	if m.Predict([]float64{1, 0}) != 1 {
		t.Error("positive decision should predict 1")
	}
	if m.Predict([]float64{0, 2}) != 0 {
		t.Error("negative decision should predict 0")
	}
	if len(m.Weights()) != 2 || m.Bias() != 0.5 {
		t.Error("weight accessors wrong")
	}
	m.Fit(nil, nil) // no-op must not panic
}

// TestPipelineStateValidate: every exported state passes the shape
// check, and each way a state can disagree with itself fails it.
func TestPipelineStateValidate(t *testing.T) {
	X, y := synthData(80, 23)
	for _, usePCA := range []bool{false, true} {
		p := &Pipeline{UsePCA: usePCA, PCAK: 2, NewModel: func() Classifier {
			return &LogisticRegression{Epochs: 20, Seed: 23}
		}}
		p.Fit(X, y)
		st, err := p.Export()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Validate(); err != nil {
			t.Fatalf("exported state (pca=%v) rejected: %v", usePCA, err)
		}
	}
	bad := map[string]*PipelineState{
		"short std":       {Mean: []float64{0, 0}, Std: []float64{1}, Weights: []float64{1, 1}},
		"short weights":   {Mean: []float64{0, 0}, Std: []float64{1, 1}, Weights: []float64{1}},
		"pca without use": {Mean: []float64{0}, Std: []float64{1}, Weights: []float64{1}, PCAMean: []float64{0}},
		"pca mean": {Mean: []float64{0, 0}, Std: []float64{1, 1}, UsePCA: true,
			PCAMean: []float64{0}, PCACols: [][]float64{{1}, {1}}, Weights: []float64{1}},
		"pca rows": {Mean: []float64{0, 0}, Std: []float64{1, 1}, UsePCA: true,
			PCAMean: []float64{0, 0}, PCACols: [][]float64{{1}}, Weights: []float64{1}},
		"ragged pca": {Mean: []float64{0, 0}, Std: []float64{1, 1}, UsePCA: true,
			PCAMean: []float64{0, 0}, PCACols: [][]float64{{1, 0}, {0}}, Weights: []float64{1, 1}},
	}
	for name, st := range bad {
		if err := st.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
