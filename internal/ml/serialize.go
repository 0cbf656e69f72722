package ml

import "fmt"

// PipelineState is the serializable form of a trained Pipeline: the
// preprocessing statistics and the linear decision function.
type PipelineState struct {
	Mean    []float64
	Std     []float64
	UsePCA  bool
	PCAMean []float64
	PCACols [][]float64 // d rows × k cols
	Weights []float64
	Bias    float64
}

// LinearModel is a frozen linear classifier restored from a
// PipelineState.
type LinearModel struct {
	W []float64
	B float64
}

// Fit is a no-op: LinearModel is always pre-trained.
func (m *LinearModel) Fit(X [][]float64, y []int) {}

// Decision returns w·x + b.
func (m *LinearModel) Decision(x []float64) float64 { return Dot(m.W, x) + m.B }

// Predict returns 1 when the decision value is positive.
func (m *LinearModel) Predict(x []float64) int {
	if m.Decision(x) > 0 {
		return 1
	}
	return 0
}

// Weights returns the weight vector.
func (m *LinearModel) Weights() []float64 { return m.W }

// Bias returns the bias.
func (m *LinearModel) Bias() float64 { return m.B }

// Export captures a trained pipeline's state. It fails if the underlying
// model is not linear.
func (p *Pipeline) Export() (*PipelineState, error) {
	wm, ok := p.model.(WeightedModel)
	if !ok {
		return nil, fmt.Errorf("ml: model does not expose weights")
	}
	st := &PipelineState{
		Mean:    append([]float64(nil), p.std.Mean...),
		Std:     append([]float64(nil), p.std.Std...),
		UsePCA:  p.UsePCA,
		Weights: append([]float64(nil), wm.Weights()...),
		Bias:    wm.Bias(),
	}
	if p.UsePCA {
		st.PCAMean = append([]float64(nil), p.pca.Mean...)
		for i := 0; i < p.pca.Components.Rows; i++ {
			st.PCACols = append(st.PCACols, append([]float64(nil), p.pca.Components.Row(i)...))
		}
	}
	return st, nil
}

// Validate checks that the state's vectors agree in shape, so Restore
// builds a pipeline that can transform a len(Mean) sample without
// indexing out of range: Std matches Mean; with PCA, the PCA mean and
// row count match Mean and every row has one column per weight;
// without PCA, there is one weight per feature and no PCA state.
func (st *PipelineState) Validate() error {
	d := len(st.Mean)
	if len(st.Std) != d {
		return fmt.Errorf("ml: classifier has %d std entries for %d means", len(st.Std), d)
	}
	if !st.UsePCA {
		if len(st.PCAMean) != 0 || len(st.PCACols) != 0 {
			return fmt.Errorf("ml: classifier carries PCA state with PCA disabled")
		}
		if len(st.Weights) != d {
			return fmt.Errorf("ml: classifier has %d weights for %d features", len(st.Weights), d)
		}
		return nil
	}
	if len(st.PCAMean) != d || len(st.PCACols) != d {
		return fmt.Errorf("ml: classifier PCA has mean %d and %d rows for %d features",
			len(st.PCAMean), len(st.PCACols), d)
	}
	for i, row := range st.PCACols {
		if len(row) != len(st.Weights) {
			return fmt.Errorf("ml: classifier PCA row %d has %d columns for %d weights", i, len(row), len(st.Weights))
		}
	}
	return nil
}

// Restore rebuilds a pipeline from exported state.
func Restore(st *PipelineState) *Pipeline {
	p := &Pipeline{UsePCA: st.UsePCA}
	p.std = Standardizer{Mean: st.Mean, Std: st.Std}
	if st.UsePCA {
		k := len(st.Weights)
		comp := NewMatrix(len(st.PCACols), k)
		for i, row := range st.PCACols {
			for j := 0; j < k && j < len(row); j++ {
				comp.Set(i, j, row[j])
			}
		}
		p.pca = PCA{K: k, Mean: st.PCAMean, Components: comp}
	}
	p.model = &LinearModel{W: st.Weights, B: st.Bias}
	return p
}
