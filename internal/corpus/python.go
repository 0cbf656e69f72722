package corpus

import (
	"fmt"
	"math/rand"

	"namer/internal/pylang"
)

// roll decides how one idiom instance is emitted.
type fate int

const (
	ok fate = iota
	buggy
	anomaly
)

func roll(rng *rand.Rand, cfg Config) fate {
	r := rng.Float64()
	switch {
	case r < cfg.IssueRate:
		return buggy
	case r < cfg.IssueRate+cfg.AnomalyRate:
		return anomaly
	default:
		return ok
	}
}

// genPythonFile emits one Python source file exercising the paper's
// idioms, returning the parsed file and any injected issues.
func genPythonFile(rng *rand.Rand, repo string, idx int, cfg Config) (*SourceFile, []*Issue) {
	e := &emitter{}
	var issues []*Issue
	add := func(is *Issue) { issues = append(issues, is) }

	noun := pick(rng, nouns)
	cls := title(noun) + "Manager"
	a1, a2 := pick2(rng, attrs)

	e.add("from unittest import TestCase")
	useNumpy := rng.Float64() < 0.5
	npAlias := "np"
	var npIssue bool
	if useNumpy {
		if roll(rng, cfg) == buggy {
			npAlias = "N"
			npIssue = true
		}
		e.add(fmt.Sprintf("import numpy as %s", npAlias))
	}
	e.blank()
	e.blank()

	// Data class with the self.<name> = <name> constructor idiom.
	e.add(fmt.Sprintf("class %s:", cls))
	params := []string{"self", a1, a2}
	ctorFate := roll(rng, cfg)
	typoParam := a2
	if ctorFate == buggy {
		typoParam = a2[:len(a2)-1] // drop last rune: port -> por
		params[2] = typoParam
	}
	e.add(fmt.Sprintf("    def __init__(%s, %s, %s):", params[0], params[1], params[2]))
	e.add(fmt.Sprintf("        self.%s = %s", a1, a1))
	switch ctorFate {
	case buggy:
		ln := e.add(fmt.Sprintf("        self.%s = %s", a2, typoParam))
		add(&Issue{Line: ln, Severity: CodeQuality, Category: "typo",
			Original: typoParam, Fixed: a2})
	case anomaly:
		// Legitimate inconsistent assignment: correct code, violates the
		// consistency idiom (false-positive pressure).
		e.add(fmt.Sprintf("        self.%s = %s", pick(rng, attrs), a2))
	default:
		e.add(fmt.Sprintf("        self.%s = %s", a2, a2))
	}
	// Occasionally an intentionally confusing or inconsistent store.
	e.add("        handler = make_handler()")
	e.add("        docstring = load_doc()")
	switch roll(rng, cfg) {
	case buggy:
		if rng.Intn(2) == 0 {
			ln := e.add("        self.help = docstring")
			add(&Issue{Line: ln, Severity: CodeQuality, Category: "inconsistent",
				Original: "help", Fixed: "docstring"})
		} else {
			ln := e.add("        self.factory = handler")
			add(&Issue{Line: ln, Severity: CodeQuality, Category: "confusing",
				Original: "factory", Fixed: "handler"})
		}
	default:
		e.add("        self.handler = handler")
		e.add("        self.docstring = docstring")
	}
	e.blank()

	// Setter idiom: def <attr>_set(self, <attr>): self._<attr> = <attr>.
	// The anomaly is a differently-named but legitimate parameter.
	setAttr := pick(rng, attrs)
	switch roll(rng, cfg) {
	case buggy:
		e.add(fmt.Sprintf("    def %s_set(self, value):", setAttr))
		ln := e.add(fmt.Sprintf("        self._%s = value", setAttr))
		add(&Issue{Line: ln, Severity: CodeQuality, Category: "minor",
			Original: "value", Fixed: setAttr})
	case anomaly:
		other := pick(rng, nouns)
		e.add(fmt.Sprintf("    def %s_set(self, %s):", setAttr, other))
		e.add(fmt.Sprintf("        self._%s = %s", setAttr, other))
	default:
		e.add(fmt.Sprintf("    def %s_set(self, %s):", setAttr, setAttr))
		e.add(fmt.Sprintf("        self._%s = %s", setAttr, setAttr))
	}
	e.blank()

	// Event handler idiom: descriptive parameter name. The anomaly is a
	// legitimate alternative name (false-positive pressure).
	switch roll(rng, cfg) {
	case buggy:
		e.add("    def on_event(self, e):")
		ln := e.add("        self.dispatch(e)")
		add(&Issue{Line: ln, Severity: CodeQuality, Category: "indescriptive",
			Original: "e", Fixed: "event"})
	case anomaly:
		e.add("    def on_event(self, signal):")
		e.add("        self.dispatch(signal)")
	default:
		e.add("    def on_event(self, event):")
		e.add("        self.dispatch(event)")
	}
	e.blank()

	// Keyworded-arguments idiom: **kwargs, not **args. The body updates a
	// dict rather than assigning, so this idiom does not pollute the
	// `self.<name> = <name>` consistency pattern.
	if f := roll(rng, cfg); f == buggy {
		ln := e.add("    def configure(self, **args):")
		e.add("        self.options.update(args)")
		add(&Issue{Line: ln, Severity: CodeQuality, Category: "confusing",
			Original: "args", Fixed: "kwargs"})
	} else {
		e.add("    def configure(self, **kwargs):")
		e.add("        self.options.update(kwargs)")
	}
	e.blank()

	// Clamp idiom: a two-argument call whose arguments have a canonical
	// order. Swapping them is the argument-selection defect class of Rice
	// et al. (§6.1); the pattern scan reports it as confusing-word
	// violations, and pointsto.CheckArgumentSelection as a crossed pair.
	// Swaps are injected at a lower rate than other issues: they are
	// genuine variable misuses, and at full rate they would dominate the
	// neural baselines' small report budget in Tables 10-11.
	a, b2 := "low", "high"
	swapBuggy := rng.Float64() < cfg.IssueRate*0.3
	if swapBuggy {
		a, b2 = "high", "low"
	}
	e.add("    def clamp(self, low, high):")
	e.add("        return min(max(self.total, low), high)")
	e.blank()
	e.add("    def rescale(self, low, high):")
	swln := e.add(fmt.Sprintf("        self.clamp(%s, %s)", a, b2))
	if swapBuggy {
		add(&Issue{Line: swln, Severity: SemanticDefect, Category: "swapped-args",
			Original: "high", Fixed: "low"})
		add(&Issue{Line: swln, Severity: SemanticDefect, Category: "swapped-args",
			Original: "low", Fixed: "high"})
	}
	e.blank()

	// Loop idiom: for i in range(NUM), with the occasional xrange bug and
	// the occasional legitimate non-i index (false-positive pressure).
	loopVar := "i"
	rangeFn := "range"
	loopFate := roll(rng, cfg)
	switch loopFate {
	case buggy:
		rangeFn = "xrange"
	case anomaly:
		loopVar = pick(rng, []string{"j", "k", "idx"})
	}
	e.add("    def process(self):")
	ln := e.add(fmt.Sprintf("        for %s in %s(%d):", loopVar, rangeFn, 5+rng.Intn(20)))
	if loopFate == buggy {
		add(&Issue{Line: ln, Severity: SemanticDefect, Category: "deprecated-api",
			Original: "xrange", Fixed: "range"})
	}
	e.add(fmt.Sprintf("            self.total += %s", loopVar))
	if useNumpy {
		npLine := e.add(fmt.Sprintf("        self.sz = %s.array(self.%s)", npAlias, a1))
		if npIssue {
			add(&Issue{Line: npLine, Severity: CodeQuality, Category: "indescriptive",
				Original: "N", Fixed: "np"})
		}
	}
	e.blank()
	e.blank()

	// Test class: the assertEqual idiom of Fig. 2. A share of files uses
	// a second assertion framework (Checker, with assertItem) whose calls
	// are syntactically identical apart from the receiver's origin —
	// without the points-to analysis the two families mix at the same
	// name path prefix and neither pattern survives pruning, which is the
	// "w/o A" effect of Tables 2 and 5.
	if rng.Float64() < 0.35 {
		e.add(fmt.Sprintf("class Test%s(Checker):", title(noun)))
		for t := 0; t < 3; t++ {
			v := pick(rng, nouns)
			at := pick(rng, attrs)
			num := 1 + rng.Intn(9000)
			e.add(fmt.Sprintf("    def test_%s_%d(self):", pick(rng, verbs), t))
			e.add(fmt.Sprintf("        %s = self.build_%s()", v, v))
			if roll(rng, cfg) == buggy {
				ln := e.add(fmt.Sprintf("        self.assertValue(%s.%s, %d)", v, at, num))
				add(&Issue{Line: ln, Severity: SemanticDefect, Category: "wrong-api",
					Original: "Value", Fixed: "Item"})
			} else {
				e.add(fmt.Sprintf("        self.assertItem(%s.%s, %d)", v, at, num))
			}
		}
	} else {
		e.add(fmt.Sprintf("class Test%s(TestCase):", title(noun)))
		for t := 0; t < 3; t++ {
			v := pick(rng, nouns)
			at := pick(rng, attrs)
			num := 1 + rng.Intn(9000)
			e.add(fmt.Sprintf("    def test_%s_%d(self):", pick(rng, verbs), t))
			e.add(fmt.Sprintf("        %s = self.build_%s()", v, v))
			switch roll(rng, cfg) {
			case buggy:
				if rng.Intn(2) == 0 {
					ln := e.add(fmt.Sprintf("        self.assertTrue(%s.%s, %d)", v, at, num))
					add(&Issue{Line: ln, Severity: SemanticDefect, Category: "wrong-api",
						Original: "True", Fixed: "Equal"})
				} else {
					ln := e.add(fmt.Sprintf("        self.assertEquals(%s.%s, %d)", v, at, num))
					add(&Issue{Line: ln, Severity: SemanticDefect, Category: "deprecated-api",
						Original: "Equals", Fixed: "Equal"})
				}
			default:
				e.add(fmt.Sprintf("        self.assertEqual(%s.%s, %d)", v, at, num))
			}
		}
	}

	src := e.String()
	root, err := pylang.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("corpus: generated Python does not parse: %v\n%s", err, src))
	}
	return &SourceFile{
		Path:   fmt.Sprintf("%s/src/file_%02d.py", repo, idx),
		Source: src,
		Root:   root,
	}, issues
}
