// Package ctxflow enforces context discipline in library code.
//
// Two rules:
//
//  1. context.Background() / context.TODO() must not appear in non-main,
//     non-test packages. A library call that manufactures its own root
//     context swallows the caller's cancellation and deadline — the bug
//     this repo's Prepared sugar methods shipped with until cfpqlint
//     caught them. Only a main package mints a root context; the
//     harnesses and tools under it take theirs as an argument.
//
//  2. An exported function or method that accepts a context.Context must
//     use it. Accepting ctx and dropping it on the floor is worse than
//     not accepting one: the signature promises cancellation the
//     implementation ignores.
package ctxflow

import (
	"go/ast"
	"go/types"

	"cfpq/internal/lint"
)

// Analyzer is the ctxflow check.
var Analyzer = &lint.Analyzer{
	Name: "ctxflow",
	Doc:  "flag context.Background()/TODO() in library code and exported functions that accept a ctx but never use it",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkRootContexts(pass, fn)
			checkUnusedCtx(pass, fn)
		}
	}
	return nil
}

// checkRootContexts flags context.Background() and context.TODO() calls.
func checkRootContexts(pass *lint.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
		if !ok || pn.Imported().Path() != "context" {
			return true
		}
		pass.Reportf(call.Pos(), "context.%s() in library code swallows the caller's cancellation; accept and thread a ctx parameter instead", sel.Sel.Name)
		return true
	})
}

// checkUnusedCtx flags exported functions with an unused context
// parameter.
func checkUnusedCtx(pass *lint.Pass, fn *ast.FuncDecl) {
	if !fn.Name.IsExported() {
		return
	}
	ctxObj := contextParam(pass, fn)
	if ctxObj == nil {
		return
	}
	used := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ctxObj {
			used = true
		}
		return !used
	})
	if !used {
		pass.Reportf(fn.Name.Pos(), "exported %s accepts a context.Context but never uses it; thread it into the calls it gates or drop the parameter", fn.Name.Name)
	}
}

// contextParam returns the object of fn's context.Context parameter, or
// nil. Parameters named _ are deliberate discards and are skipped.
func contextParam(pass *lint.Pass, fn *ast.FuncDecl) types.Object {
	if fn.Type.Params == nil {
		return nil
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[name]
			if !ok || obj == nil {
				continue
			}
			if named, ok := obj.Type().(*types.Named); ok {
				o := named.Obj()
				if o.Name() == "Context" && o.Pkg() != nil && o.Pkg().Path() == "context" {
					return obj
				}
			}
		}
	}
	return nil
}
