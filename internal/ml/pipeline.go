package ml

// Pipeline chains feature standardization, PCA, and a linear classifier —
// the exact setup of §5.1 ("feature standardization and principal
// component analysis as a preprocessing step").
type Pipeline struct {
	UsePCA   bool
	PCAK     int // components to keep (0 = all)
	NewModel func() Classifier
	std      Standardizer
	pca      PCA
	model    Classifier
}

// Fit fits the preprocessing on X and trains the classifier.
func (p *Pipeline) Fit(X [][]float64, y []int) {
	p.std = Standardizer{}
	p.std.Fit(X)
	Z := p.std.TransformAll(X)
	if p.UsePCA {
		p.pca = PCA{K: p.PCAK}
		p.pca.Fit(Z)
		Z = p.pca.TransformAll(Z)
	}
	p.model = p.NewModel()
	p.model.Fit(Z, y)
}

func (p *Pipeline) transform(x []float64) []float64 {
	z := p.std.Transform(x)
	if p.UsePCA {
		z = p.pca.Transform(z)
	}
	return z
}

// Predict classifies one raw (untransformed) sample.
func (p *Pipeline) Predict(x []float64) int { return p.model.Predict(p.transform(x)) }

// Decision returns the signed decision value for one raw sample.
func (p *Pipeline) Decision(x []float64) float64 { return p.model.Decision(p.transform(x)) }

// FeatureWeights maps the trained linear model's weights back to the
// original (standardized) feature space, undoing the PCA rotation. This is
// what Table 9 reports. Returns nil when the model is not linear.
func (p *Pipeline) FeatureWeights() []float64 {
	wm, ok := p.model.(WeightedModel)
	if !ok {
		return nil
	}
	w := wm.Weights()
	if p.UsePCA {
		w = p.pca.BackProject(w)
	}
	out := make([]float64, len(w))
	copy(out, w)
	return out
}
