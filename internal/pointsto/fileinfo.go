// Package pointsto implements the per-file static analyses of §4.1: a
// flow- and context-sensitive Andersen-style points-to analysis with
// k-call-site sensitivity, plus a value-origin dataflow for primitives.
// The analysis generates facts and solves six Datalog rules over them
// (see solve) with a dedicated least-fixpoint solver. Its product is an origin label per identifier
// occurrence, which the AST+ transformation (package astplus) inserts as
// origin nodes.
//
// Every file is analyzed in isolation; every public method or function is
// a possible entry point; any function or method defined outside the file
// is considered to return a fresh allocation site labeled with the callee
// name. The analysis is therefore not sound, which §4.1 notes is not a
// requirement in this setting.
package pointsto

import (
	"strings"

	"namer/internal/ast"
)

// ClassInfo describes a class defined in the analyzed file.
type ClassInfo struct {
	Name    string
	Bases   []string // base names in declaration order (possibly dotted)
	Methods map[string]*ast.Node
	Fields  map[string]bool
	Node    *ast.Node
}

// FileInfo indexes the classes, module-level functions, and imports of a
// single source file.
type FileInfo struct {
	Lang    ast.Language
	Classes map[string]*ClassInfo
	Funcs   map[string]*ast.Node
	// Imports maps a local alias to the imported dotted path
	// (`import numpy as np` yields np -> numpy).
	Imports map[string]string
}

// Collect builds the FileInfo for a parsed file.
func Collect(root *ast.Node, lang ast.Language) *FileInfo {
	fi := &FileInfo{
		Lang:    lang,
		Classes: make(map[string]*ClassInfo),
		Funcs:   make(map[string]*ast.Node),
		Imports: make(map[string]string),
	}
	for _, c := range root.Children {
		switch c.Kind {
		case ast.ClassDef, ast.InterfaceDef, ast.EnumDef:
			fi.collectClass(c)
		case ast.FunctionDef:
			if name := childIdent(c); name != "" {
				fi.Funcs[name] = c
			}
		case ast.Import:
			fi.collectImport(c)
		case ast.ImportFrom:
			fi.collectImportFrom(c)
		}
	}
	return fi
}

func (fi *FileInfo) collectClass(c *ast.Node) {
	info := &ClassInfo{
		Name:    childIdent(c),
		Methods: make(map[string]*ast.Node),
		Fields:  make(map[string]bool),
		Node:    c,
	}
	for _, ch := range c.Children {
		switch ch.Kind {
		case ast.Bases:
			for _, b := range ch.Children {
				if name := exprName(b); name != "" {
					info.Bases = append(info.Bases, name)
				}
			}
		case ast.Body:
			for _, m := range ch.Children {
				switch m.Kind {
				case ast.FunctionDef, ast.CtorDef:
					if name := childIdent(m); name != "" {
						info.Methods[name] = m
					}
					// Python instance fields assigned through self.
					m.Walk(func(n *ast.Node) bool {
						if n.Kind == ast.AttributeStore && len(n.Children) == 2 {
							if recv := n.Children[0]; recv.Kind == ast.NameLoad &&
								isSelfName(recv.Children[0].Value) {
								info.Fields[attrName(n)] = true
							}
						}
						return true
					})
				case ast.FieldDecl:
					for _, f := range m.Children {
						if f.Kind == ast.NameStore {
							info.Fields[f.Children[0].Value] = true
						}
					}
				case ast.Assign:
					// Python class attribute: NAME = value at class level.
					if t := m.Children[0]; t.Kind == ast.NameStore {
						info.Fields[t.Children[0].Value] = true
					}
				case ast.ClassDef, ast.InterfaceDef, ast.EnumDef:
					fi.collectClass(m)
				}
			}
		}
	}
	if info.Name != "" {
		fi.Classes[info.Name] = info
	}
}

func (fi *FileInfo) collectImport(c *ast.Node) {
	for _, al := range c.Children {
		if al.Kind != ast.ImportAlias || len(al.Children) == 0 {
			continue
		}
		path := al.Children[0].Value
		local := path
		if len(al.Children) > 1 {
			local = al.Children[1].Value
		} else {
			// `import os.path` binds os; `import java.util.List` binds List.
			if i := strings.Index(path, "."); i >= 0 {
				if fi.Lang == ast.Java {
					local = path[strings.LastIndex(path, ".")+1:]
				} else {
					local = path[:i]
					path = local
				}
			}
		}
		if strings.HasSuffix(local, ".*") || local == "*" {
			continue
		}
		fi.Imports[local] = path
	}
}

func (fi *FileInfo) collectImportFrom(c *ast.Node) {
	if len(c.Children) == 0 {
		return
	}
	module := c.Children[0].Value
	for _, al := range c.Children[1:] {
		if al.Kind != ast.ImportAlias || len(al.Children) == 0 {
			continue
		}
		name := al.Children[0].Value
		if name == "*" {
			continue
		}
		local := name
		if len(al.Children) > 1 {
			local = al.Children[1].Value
		}
		fi.Imports[local] = module + "." + name
	}
}

// DefiningClass resolves the class that defines attr, starting the lookup
// at class name. It walks the in-file hierarchy; if the attribute cannot be
// found and an external base exists along the walk, the first external base
// name is returned (the Fig. 2 behavior: assertTrue on TestPicture resolves
// to TestCase). With no bases at all, the starting class name is returned.
func (fi *FileInfo) DefiningClass(class, attr string) string {
	seen := map[string]bool{}
	var walk func(name string) (string, bool)
	walk = func(name string) (string, bool) {
		if seen[name] {
			return "", false
		}
		seen[name] = true
		info, ok := fi.Classes[name]
		if !ok {
			// External class: attribute assumed defined here.
			return lastComponent(name), true
		}
		if _, defined := info.Methods[attr]; defined || info.Fields[attr] {
			return name, true
		}
		for _, b := range info.Bases {
			if res, ok := walk(b); ok {
				return res, true
			}
		}
		return "", false
	}
	if res, ok := walk(class); ok {
		return res
	}
	return class
}

// ResolveMethod finds the in-file class along the hierarchy of class that
// defines method attr, returning its ClassInfo and the method node, or nil
// if the method is external.
func (fi *FileInfo) ResolveMethod(class, attr string) (*ClassInfo, *ast.Node) {
	seen := map[string]bool{}
	cur := class
	for !seen[cur] {
		seen[cur] = true
		info, ok := fi.Classes[cur]
		if !ok {
			return nil, nil
		}
		if m, ok := info.Methods[attr]; ok {
			return info, m
		}
		if len(info.Bases) == 0 {
			return nil, nil
		}
		cur = info.Bases[0]
	}
	return nil, nil
}

func childIdent(n *ast.Node) string {
	for _, c := range n.Children {
		if c.Kind == ast.Ident {
			return c.Value
		}
	}
	return ""
}

// exprName renders a simple name expression (NameLoad, dotted attribute
// chain, TypeRef) as a dotted string; "" if the expression is not a name.
func exprName(n *ast.Node) string {
	switch n.Kind {
	case ast.NameLoad, ast.NameStore:
		return n.Children[0].Value
	case ast.TypeRef:
		return strings.TrimSuffix(n.Children[0].Value, "[]")
	case ast.AttributeLoad:
		base := exprName(n.Children[0])
		if base == "" {
			return ""
		}
		return base + "." + attrName(n)
	case ast.Ident:
		return n.Value
	}
	return ""
}

// attrName returns the attribute identifier of an AttributeLoad/Store.
func attrName(n *ast.Node) string {
	if len(n.Children) == 2 && n.Children[1].Kind == ast.Attr {
		return n.Children[1].Children[0].Value
	}
	return ""
}

func isSelfName(s string) bool { return s == "self" || s == "this" }

func lastComponent(s string) string {
	if i := strings.LastIndex(s, "."); i >= 0 {
		return s[i+1:]
	}
	return s
}
