package great

import (
	"math/rand"
	"testing"

	"namer/internal/graphs"
	"namer/internal/pylang"
	"namer/internal/synthetic"
)

func trainSet(t *testing.T, vocab *graphs.Vocab, n int) []*synthetic.Sample {
	t.Helper()
	src := `def merge(first, second):
    joined = first + second
    doubled = joined + joined
    return doubled

def select(items, index):
    chosen = items[index]
    return chosen
`
	root, err := pylang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fns := synthetic.Functions(root)
	rng := rand.New(rand.NewSource(7))
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

func TestTrainingReducesLoss(t *testing.T) {
	vocab := graphs.NewVocab()
	samples := trainSet(t, vocab, 50)
	m := New(Config{VocabSize: vocab.Len() + 8, Dim: 12, Layers: 1, Seed: 1})
	losses := m.Train(samples, 4, 0.01)
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %v", losses)
	}
}

func TestRepairBeatsChance(t *testing.T) {
	vocab := graphs.NewVocab()
	train := trainSet(t, vocab, 80)
	m := New(Config{VocabSize: vocab.Len() + 8, Dim: 12, Layers: 1, Seed: 2})
	m.Train(train, 6, 0.01)
	test := trainSet(t, vocab, 30)
	correct := 0
	for _, s := range test {
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
	acc := float64(correct) / float64(len(test))
	if acc < 0.5 {
		t.Errorf("repair accuracy = %.2f, want >= 0.5", acc)
	}
}

func TestScoreShapeAndParams(t *testing.T) {
	vocab := graphs.NewVocab()
	samples := trainSet(t, vocab, 3)
	m := New(Config{VocabSize: vocab.Len() + 8, Dim: 8, Layers: 1, Seed: 3})
	s := samples[0]
	if got := len(m.Score(s)); got != len(s.Candidates) {
		t.Errorf("scores = %d, want %d", got, len(s.Candidates))
	}
}
