// Package graphs builds the program graphs consumed by the neural
// baselines of §5.6 (GGNN and Great): AST nodes plus the data-flow-style
// edges of Allamanis et al. (Child, NextSibling, NextToken, LastUse,
// LastWrite, ComputedFrom), with variable-occurrence bookkeeping for the
// variable-misuse task.
package graphs

import (
	"namer/internal/ast"
)

// EdgeType enumerates the edge relations.
type EdgeType int

// Edge types. Reversed variants double the message-passing directions as
// in the GGNN paper.
const (
	Child EdgeType = iota
	Parent
	NextSibling
	NextToken
	LastUse
	LastWrite
	ComputedFrom
	NumEdgeTypes
)

// String returns the edge type name.
func (e EdgeType) String() string {
	switch e {
	case Child:
		return "Child"
	case Parent:
		return "Parent"
	case NextSibling:
		return "NextSibling"
	case NextToken:
		return "NextToken"
	case LastUse:
		return "LastUse"
	case LastWrite:
		return "LastWrite"
	case ComputedFrom:
		return "ComputedFrom"
	}
	return "?"
}

// Vocab interns node value strings. Id 0 is the unknown token; once
// frozen, unseen words map to it.
type Vocab struct {
	byWord map[string]int
	words  []string
	frozen bool
}

// NewVocab returns a vocabulary containing only the unknown token.
func NewVocab() *Vocab {
	v := &Vocab{byWord: map[string]int{"<unk>": 0}, words: []string{"<unk>"}}
	return v
}

// ID returns the id for word, interning it unless the vocabulary is
// frozen.
func (v *Vocab) ID(word string) int {
	if id, ok := v.byWord[word]; ok {
		return id
	}
	if v.frozen {
		return 0
	}
	id := len(v.words)
	v.byWord[word] = id
	v.words = append(v.words, word)
	return id
}

// Freeze stops the vocabulary from growing.
func (v *Vocab) Freeze() { v.frozen = true }

// Len returns the vocabulary size.
func (v *Vocab) Len() int { return len(v.words) }

// Graph is a program graph over the nodes of one AST subtree.
type Graph struct {
	// Vals holds the vocabulary id of each node's value.
	Vals []int
	// VarName is non-empty for variable-occurrence nodes (identifier
	// terminals in name contexts, excluding self/this).
	VarName []string
	// IsWrite marks variable occurrences in store/parameter position.
	IsWrite []bool
	Edges   [NumEdgeTypes][][2]int
	// NodeOf maps AST nodes to graph node indices (valid until the AST is
	// mutated).
	NodeOf map[*ast.Node]int
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Vals) }

// VarUses returns the indices of variable-occurrence nodes in read
// position (the candidate misuse slots).
func (g *Graph) VarUses() []int {
	var out []int
	for i, name := range g.VarName {
		if name != "" && !g.IsWrite[i] {
			out = append(out, i)
		}
	}
	return out
}

// Variables returns the distinct variable names in the graph, in first-
// occurrence order, along with a representative node index per name.
func (g *Graph) Variables() ([]string, []int) {
	var names []string
	var reps []int
	seen := map[string]bool{}
	for i, name := range g.VarName {
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		names = append(names, name)
		reps = append(reps, i)
	}
	return names, reps
}

// Build constructs the program graph for an AST subtree.
func Build(root *ast.Node, vocab *Vocab) *Graph {
	g := &Graph{NodeOf: make(map[*ast.Node]int)}
	// Number nodes in pre-order.
	var lastTerminal = -1
	var order []*ast.Node
	var number func(n *ast.Node)
	number = func(n *ast.Node) {
		id := len(order)
		order = append(order, n)
		g.NodeOf[n] = id
		g.Vals = append(g.Vals, vocab.ID(n.Value))
		g.VarName = append(g.VarName, "")
		g.IsWrite = append(g.IsWrite, false)
		for _, c := range n.Children {
			number(c)
		}
	}
	number(root)

	addEdge := func(t EdgeType, s, d int) {
		g.Edges[t] = append(g.Edges[t], [2]int{s, d})
	}

	lastOccurrence := map[string]int{}
	lastWrite := map[string]int{}

	var walk func(n *ast.Node)
	walk = func(n *ast.Node) {
		id := g.NodeOf[n]
		prevSib := -1
		for _, c := range n.Children {
			cid := g.NodeOf[c]
			addEdge(Child, id, cid)
			addEdge(Parent, cid, id)
			if prevSib >= 0 {
				addEdge(NextSibling, prevSib, cid)
			}
			prevSib = cid
			walk(c)
		}
		if n.IsTerminal() {
			if lastTerminal >= 0 {
				addEdge(NextToken, lastTerminal, id)
			}
			lastTerminal = id
		}
	}
	walk(root)

	// Variable occurrences with LastUse / LastWrite edges (token order).
	var visitVars func(n *ast.Node, parent *ast.Node)
	visitVars = func(n *ast.Node, parent *ast.Node) {
		if n.Kind == ast.Ident && parent != nil && isNameContext(parent.Kind) &&
			n.Value != "self" && n.Value != "this" {
			id := g.NodeOf[n]
			g.VarName[id] = n.Value
			write := isWriteContext(parent.Kind)
			g.IsWrite[id] = write
			if prev, ok := lastOccurrence[n.Value]; ok {
				addEdge(LastUse, id, prev)
			}
			if prev, ok := lastWrite[n.Value]; ok {
				addEdge(LastWrite, id, prev)
			}
			lastOccurrence[n.Value] = id
			if write {
				lastWrite[n.Value] = id
			}
		}
		for _, c := range n.Children {
			visitVars(c, n)
		}
	}
	visitVars(root, nil)

	// ComputedFrom: assignment target variables <- RHS variables.
	root.Walk(func(n *ast.Node) bool {
		if n.Kind != ast.Assign || len(n.Children) < 2 {
			return true
		}
		value := n.Children[len(n.Children)-1]
		var rhs []int
		value.Walk(func(m *ast.Node) bool {
			if id, ok := g.NodeOf[m]; ok && g.VarName[id] != "" {
				rhs = append(rhs, id)
			}
			return true
		})
		for _, tgt := range n.Children[:len(n.Children)-1] {
			tgt.Walk(func(m *ast.Node) bool {
				if id, ok := g.NodeOf[m]; ok && g.VarName[id] != "" {
					for _, r := range rhs {
						addEdge(ComputedFrom, id, r)
					}
				}
				return true
			})
		}
		return true
	})
	return g
}

func isNameContext(k ast.Kind) bool {
	switch k {
	case ast.NameLoad, ast.NameStore, ast.NameParam, ast.Param,
		ast.DefaultParam, ast.VarArgParam, ast.KwArgParam:
		return true
	}
	return false
}

func isWriteContext(k ast.Kind) bool {
	switch k {
	case ast.NameStore, ast.Param, ast.DefaultParam, ast.VarArgParam,
		ast.KwArgParam, ast.NameParam:
		return true
	}
	return false
}
