package eval

import (
	"math/rand"

	"namer/internal/corpus"
)

// StudyItem is one row of Table 7: a code-quality report shown to the
// (simulated) developers.
type StudyItem struct {
	Category  string
	Statement string
	Original  string
	Suggested string
}

// StudyResult is one row of Table 8: how the panel judged one category.
type StudyResult struct {
	Category    string
	NotAccepted int
	WithIDE     int // accepted at coding time with an IDE plugin
	WithPR      int // accepted as an automatic pull request
	Manually    int // would even fix manually
}

// userStudyCategories are the five code-quality categories of Table 7.
var userStudyCategories = []string{
	"inconsistent", "minor", "confusing", "typo", "indescriptive",
}

// UserStudyItems reproduces Table 7's selection: one classifier-approved
// code-quality report per category (randomly picking the first found).
func (r *Run) UserStudyItems() []StudyItem {
	if !r.Sys.HasClassifier() {
		r.TrainClassifier()
	}
	var items []StudyItem
	for _, cat := range userStudyCategories {
		for _, l := range r.Violations {
			if l.Severity != corpus.CodeQuality || l.Category != cat {
				continue
			}
			if !r.Sys.ClassifyIn(r.Stats, l.V) {
				continue
			}
			items = append(items, StudyItem{
				Category:  cat,
				Statement: l.V.Stmt.SourceLine,
				Original:  l.V.Detail.Original,
				Suggested: l.V.Detail.Suggested,
			})
			break
		}
	}
	return items
}

// acceptance propensities per category: probabilities of the four
// outcomes (not accepted, with IDE, with PR, fix manually). These encode
// the qualitative finding of §5.4 — developers accept most reports when
// an automatic tool locates the issue and suggests the fix, and only a
// few reports are rejected — and are a *simulation* standing in for the
// paper's seven human participants (see DESIGN.md).
var studyPropensity = map[string][4]float64{
	"confusing":     {0.05, 0.40, 0.30, 0.25},
	"indescriptive": {0.05, 0.40, 0.30, 0.25},
	"inconsistent":  {0.25, 0.10, 0.50, 0.15},
	"minor":         {0.30, 0.50, 0.05, 0.15},
	"typo":          {0.15, 0.25, 0.15, 0.45},
}

// SimulateUserStudy runs the §5.4 protocol with a panel of simulated
// developers: each developer judges each item, drawing an outcome from
// the category's propensity distribution with per-developer leniency
// jitter. Deterministic in the seed.
func SimulateUserStudy(items []StudyItem, developers int, seed int64) []StudyResult {
	rng := rand.New(rand.NewSource(seed))
	// Per-developer leniency shifts probability mass away from or toward
	// rejection.
	leniency := make([]float64, developers)
	for d := range leniency {
		leniency[d] = rng.Float64()*0.2 - 0.1
	}
	var out []StudyResult
	for _, item := range items {
		base, ok := studyPropensity[item.Category]
		if !ok {
			base = [4]float64{0.25, 0.25, 0.25, 0.25}
		}
		res := StudyResult{Category: item.Category}
		for d := 0; d < developers; d++ {
			p := base
			p[0] -= leniency[d]
			if p[0] < 0.01 {
				p[0] = 0.01
			}
			total := p[0] + p[1] + p[2] + p[3]
			roll := rng.Float64() * total
			switch {
			case roll < p[0]:
				res.NotAccepted++
			case roll < p[0]+p[1]:
				res.WithIDE++
			case roll < p[0]+p[1]+p[2]:
				res.WithPR++
			default:
				res.Manually++
			}
		}
		out = append(out, res)
	}
	return out
}
