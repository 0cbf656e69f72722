package pointsto

import (
	"namer/internal/ast"
)

// ArgSwap is a suspected argument-selection defect (Rice et al., OOPSLA
// 2017, discussed in §6.1 of the paper): a call to an in-file function
// whose actual argument names match the callee's formal parameter names —
// but at exchanged positions.
type ArgSwap struct {
	Line   int
	Callee string
	PosA   int
	PosB   int
	ArgA   string // actual at PosA (equals the formal at PosB)
	ArgB   string // actual at PosB (equals the formal at PosA)
}

// CheckArgumentSelection scans a file for calls to functions defined in
// the same file where two simple-name arguments exactly cross-match the
// corresponding formal parameter names. It is a precise intra-file check
// that needs no mined patterns.
func CheckArgumentSelection(root *ast.Node, lang ast.Language) []ArgSwap {
	info := Collect(root, lang)
	var out []ArgSwap

	var visit func(n *ast.Node, class string)
	visit = func(n *ast.Node, class string) {
		switch n.Kind {
		case ast.ClassDef, ast.InterfaceDef, ast.EnumDef:
			class = childIdent(n)
		case ast.Call:
			if sw, ok := checkCall(info, n, class, lang); ok {
				out = append(out, sw)
			}
		}
		for _, c := range n.Children {
			visit(c, class)
		}
	}
	visit(root, "")
	return out
}

// checkCall resolves the callee and cross-matches actuals against formals.
func checkCall(info *FileInfo, call *ast.Node, class string, lang ast.Language) (ArgSwap, bool) {
	callee := call.Children[0]
	var fnNode *ast.Node
	var name string
	skipSelf := false
	switch callee.Kind {
	case ast.NameLoad:
		name = callee.Children[0].Value
		fnNode = info.Funcs[name]
	case ast.AttributeLoad:
		recv := callee.Children[0]
		name = attrName(callee)
		if recv.Kind == ast.NameLoad && isSelfName(recv.Children[0].Value) && class != "" {
			if _, m := info.ResolveMethod(class, name); m != nil {
				fnNode = m
				skipSelf = lang == ast.Python
			}
		}
	}
	if fnNode == nil {
		return ArgSwap{}, false
	}
	formals := formalNames(fnNode)
	if skipSelf && len(formals) > 0 && isSelfName(formals[0]) {
		formals = formals[1:]
	}
	actuals := actualNames(call)
	n := len(actuals)
	if len(formals) < n {
		n = len(formals)
	}
	for i := 0; i < n; i++ {
		if actuals[i] == "" || actuals[i] == formals[i] {
			continue
		}
		for j := i + 1; j < n; j++ {
			if actuals[j] == "" || actuals[i] == actuals[j] {
				continue
			}
			if actuals[i] == formals[j] && actuals[j] == formals[i] {
				return ArgSwap{
					Line:   call.Line,
					Callee: name,
					PosA:   i,
					PosB:   j,
					ArgA:   actuals[i],
					ArgB:   actuals[j],
				}, true
			}
		}
	}
	return ArgSwap{}, false
}

func formalNames(fn *ast.Node) []string {
	var out []string
	if params := findChild(fn, ast.Params); params != nil {
		for _, p := range params.Children {
			name, _ := paramNameType(p)
			out = append(out, name)
		}
	}
	return out
}

// actualNames extracts simple variable names from call arguments ("" for
// anything more complex, which the check skips).
func actualNames(call *ast.Node) []string {
	var out []string
	for _, arg := range call.Children[1:] {
		if arg.Kind == ast.NameLoad && len(arg.Children) == 1 {
			out = append(out, arg.Children[0].Value)
		} else {
			out = append(out, "")
		}
	}
	return out
}
