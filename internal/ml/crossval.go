package ml

import "math/rand"

// Metrics are the binary-classification quality measures reported in §5.2
// and §5.3.
type Metrics struct {
	Accuracy  float64
	Precision float64
	Recall    float64
	F1        float64
}

// Evaluate computes metrics from predictions and gold labels (class 1 is
// the positive class).
func Evaluate(pred, gold []int) Metrics {
	var tp, fp, fn, correct int
	for i := range gold {
		if pred[i] == gold[i] {
			correct++
		}
		switch {
		case pred[i] == 1 && gold[i] == 1:
			tp++
		case pred[i] == 1 && gold[i] == 0:
			fp++
		case pred[i] == 0 && gold[i] == 1:
			fn++
		}
	}
	m := Metrics{}
	if len(gold) > 0 {
		m.Accuracy = float64(correct) / float64(len(gold))
	}
	if tp+fp > 0 {
		m.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		m.Recall = float64(tp) / float64(tp+fn)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// CrossValidate repeats a random train/test split (trainFrac of samples
// train, the rest test) `repeats` times, training a fresh pipeline each
// round, and returns the averaged metrics. The paper uses 80/20 splits
// repeated 30 times.
func CrossValidate(newPipeline func() *Pipeline, X [][]float64, y []int,
	repeats int, trainFrac float64, seed int64) Metrics {

	if repeats <= 0 {
		repeats = 30
	}
	if trainFrac <= 0 || trainFrac >= 1 {
		trainFrac = 0.8
	}
	rng := rand.New(rand.NewSource(seed))
	var sum Metrics
	for r := 0; r < repeats; r++ {
		perm := rng.Perm(len(X))
		cut := int(trainFrac * float64(len(X)))
		if cut < 1 {
			cut = 1
		}
		if cut >= len(X) {
			cut = len(X) - 1
		}
		var trX, teX [][]float64
		var trY, teY []int
		for i, idx := range perm {
			if i < cut {
				trX = append(trX, X[idx])
				trY = append(trY, y[idx])
			} else {
				teX = append(teX, X[idx])
				teY = append(teY, y[idx])
			}
		}
		p := newPipeline()
		p.Fit(trX, trY)
		pred := make([]int, len(teX))
		for i, x := range teX {
			pred[i] = p.Predict(x)
		}
		m := Evaluate(pred, teY)
		sum.Accuracy += m.Accuracy
		sum.Precision += m.Precision
		sum.Recall += m.Recall
		sum.F1 += m.F1
	}
	n := float64(repeats)
	return Metrics{
		Accuracy:  sum.Accuracy / n,
		Precision: sum.Precision / n,
		Recall:    sum.Recall / n,
		F1:        sum.F1 / n,
	}
}
