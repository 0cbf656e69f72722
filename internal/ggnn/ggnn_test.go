package ggnn

import (
	"math/rand"
	"testing"

	"namer/internal/ast"
	"namer/internal/graphs"
	"namer/internal/pylang"
	"namer/internal/synthetic"
)

// trainSet builds a small misuse training set from template functions.
func trainSet(t *testing.T, vocab *graphs.Vocab, n int) []*synthetic.Sample {
	t.Helper()
	src := `def combine(left, right):
    total = left + right
    scaled = total * left
    return scaled

def clamp(value, limit):
    if value > limit:
        return limit
    return value
`
	root, err := pylang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fns := fnsOf(root)
	rng := rand.New(rand.NewSource(42))
	var samples []*synthetic.Sample
	for len(samples) < n {
		fn := fns[rng.Intn(len(fns))]
		if rng.Intn(2) == 0 {
			cs := synthetic.CleanSamples(fn, vocab, 0)
			if len(cs) > 0 {
				samples = append(samples, cs[rng.Intn(len(cs))])
			}
		} else if s, ok := synthetic.Inject(fn, vocab, rng); ok {
			samples = append(samples, s)
		}
	}
	return samples
}

func fnsOf(root *ast.Node) []*ast.Node { return synthetic.Functions(root) }

func repairAccuracy(m synthetic.Scorer, samples []*synthetic.Sample) float64 {
	correct := 0
	for _, s := range samples {
		scores := m.Score(s)
		best := 0
		for i, sc := range scores {
			if sc > scores[best] {
				best = i
			}
		}
		if best == s.Correct {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

func TestTrainingReducesLoss(t *testing.T) {
	vocab := graphs.NewVocab()
	samples := trainSet(t, vocab, 60)
	m := New(Config{VocabSize: vocab.Len() + 8, Dim: 12, Steps: 2, Seed: 1})
	losses := m.Train(samples, 4, 0.01)
	if len(losses) != 4 {
		t.Fatalf("losses = %v", losses)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %v", losses)
	}
}

func TestRepairBeatsChance(t *testing.T) {
	vocab := graphs.NewVocab()
	train := trainSet(t, vocab, 80)
	m := New(Config{VocabSize: vocab.Len() + 8, Dim: 12, Steps: 2, Seed: 2})
	m.Train(train, 6, 0.01)
	test := trainSet(t, vocab, 30)
	acc := repairAccuracy(m, test)
	// Candidate sets have >= 2 entries; chance is < 0.5.
	if acc < 0.5 {
		t.Errorf("repair accuracy = %.2f, want >= 0.5", acc)
	}
}

func TestScoreShape(t *testing.T) {
	vocab := graphs.NewVocab()
	samples := trainSet(t, vocab, 4)
	m := New(Config{VocabSize: vocab.Len() + 8, Dim: 8, Steps: 1, Seed: 4})
	s := samples[0]
	scores := m.Score(s)
	if len(scores) != len(s.Candidates) {
		t.Errorf("scores = %d, candidates = %d", len(scores), len(s.Candidates))
	}
}
