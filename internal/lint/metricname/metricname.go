// Package metricname lifts internal/obs's metric-name registration panic
// to compile time: every constant name passed to a Registry registration
// method (Counter, GaugeVec, HistogramVec, ...) is validated with the
// exact same obs.CheckName / obs.CheckLabel rules the runtime enforces —
// snake_case, counters ending in _total, gauges and histograms ending in
// a unit suffix.
//
// Names that reach a registration method through a local wrapper
// function are followed one level: the wrapper's call sites are vetted at
// the parameter position the name flows through. A name
// the analyzer cannot resolve to a compile-time constant is flagged too:
// a dynamic metric name defeats compile-time vetting and indicates label
// data leaking into the name.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/types"

	"cfpq/internal/lint"
	"cfpq/internal/obs"
)

// Analyzer is the metricname check.
var Analyzer = &lint.Analyzer{
	Name: "metricname",
	Doc:  "validate constant metric names and labels passed to internal/obs registration at compile time",
	Run:  run,
}

// regMethods maps Registry registration methods to the metric kind their
// name argument is checked as, plus the index where label names start
// (-1: the method takes no label names).
type regMethod struct {
	kind      obs.Kind
	labelsAt  int
	hasLabels bool
}

var regMethods = map[string]regMethod{
	"Counter":      {kind: obs.KindCounter},
	"CounterVec":   {kind: obs.KindCounter, labelsAt: 2, hasLabels: true},
	"CounterFunc":  {kind: obs.KindCounter},
	"Gauge":        {kind: obs.KindGauge},
	"GaugeVec":     {kind: obs.KindGauge, labelsAt: 2, hasLabels: true},
	"GaugeFunc":    {kind: obs.KindGauge},
	"Histogram":    {kind: obs.KindHistogram},
	"HistogramVec": {kind: obs.KindHistogram, labelsAt: 3, hasLabels: true},
}

func run(pass *lint.Pass) error {
	// wrapper records functions that forward a parameter into a
	// registration method's name argument: function object -> (parameter
	// index, kind).
	type wrapped struct {
		paramIndex int
		kind       obs.Kind
	}
	wrappers := make(map[types.Object]wrapped)

	// First sweep: vet direct registration calls; discover wrappers.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			rm, ok := regMethods[sel.Sel.Name]
			if !ok || !isRegistry(pass, sel.X) || len(call.Args) == 0 {
				return true
			}
			checkLabels(pass, call, rm)
			name, isConst := constString(pass, call.Args[0])
			if isConst {
				if err := obs.CheckName(rm.kind, name); err != nil {
					pass.Reportf(call.Args[0].Pos(), "%v", err)
				}
				return true
			}
			// Not constant: a parameter of the enclosing function makes
			// that function a registration wrapper whose call sites are
			// vetted instead; anything else is a dynamic name.
			if obj, idx, ok := enclosingParam(pass, f, call.Args[0]); ok {
				wrappers[obj] = wrapped{paramIndex: idx, kind: rm.kind}
			} else {
				pass.Reportf(call.Args[0].Pos(), "metric name is not a compile-time constant; dynamic names defeat vetting and usually mean label data in the name")
			}
			return true
		})
	}
	if len(wrappers) == 0 {
		return nil
	}
	// Second sweep: vet the wrappers' call sites.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var obj types.Object
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				obj = pass.TypesInfo.Uses[fun]
			case *ast.SelectorExpr:
				obj = pass.TypesInfo.Uses[fun.Sel]
			}
			w, ok := wrappers[obj]
			if !ok || w.paramIndex >= len(call.Args) {
				return true
			}
			arg := call.Args[w.paramIndex]
			name, isConst := constString(pass, arg)
			if !isConst {
				pass.Reportf(arg.Pos(), "metric name is not a compile-time constant; dynamic names defeat vetting and usually mean label data in the name")
				return true
			}
			if err := obs.CheckName(w.kind, name); err != nil {
				pass.Reportf(arg.Pos(), "%v", err)
			}
			return true
		})
	}
	return nil
}

// checkLabels vets the constant label-name arguments of a Vec
// registration.
func checkLabels(pass *lint.Pass, call *ast.CallExpr, rm regMethod) {
	if !rm.hasLabels {
		return
	}
	for i := rm.labelsAt; i < len(call.Args); i++ {
		if label, ok := constString(pass, call.Args[i]); ok {
			if err := obs.CheckLabel(label); err != nil {
				pass.Reportf(call.Args[i].Pos(), "%v", err)
			}
		}
	}
}

// isRegistry reports whether e is (a pointer to) a type named Registry —
// matched by bare name so fixtures may declare a stand-in.
func isRegistry(pass *lint.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	return lint.TypeName(tv.Type) == "Registry"
}

// constString resolves e to a compile-time constant string.
func constString(pass *lint.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// enclosingParam finds the function whose parameter e is and returns the
// object call sites resolve that function through, plus the parameter's
// index. Two shapes are recognized: a named function declaration (call
// sites use the function object), and a function literal bound to a
// variable — `counter := func(name, help string, ...) {...}` — where call
// sites use the variable object.
func enclosingParam(pass *lint.Pass, f *ast.File, e ast.Expr) (types.Object, int, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil, 0, false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil, 0, false
	}
	var found types.Object
	idx := 0
	match := func(params *ast.FieldList, callee types.Object) {
		if found != nil || callee == nil || params == nil {
			return
		}
		i := 0
		for _, field := range params.List {
			for _, name := range field.Names {
				if pass.TypesInfo.Defs[name] == obj {
					found = callee
					idx = i
				}
				i++
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			match(n.Type.Params, pass.TypesInfo.Defs[n.Name])
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok || i >= len(n.Lhs) {
					continue
				}
				if lhs, ok := n.Lhs[i].(*ast.Ident); ok {
					callee := pass.TypesInfo.Defs[lhs]
					if callee == nil {
						callee = pass.TypesInfo.Uses[lhs]
					}
					match(lit.Type.Params, callee)
				}
			}
		case *ast.ValueSpec:
			for i, v := range n.Values {
				if lit, ok := v.(*ast.FuncLit); ok && i < len(n.Names) {
					match(lit.Type.Params, pass.TypesInfo.Defs[n.Names[i]])
				}
			}
		}
		return found == nil
	})
	if found == nil {
		return nil, 0, false
	}
	return found, idx, true
}
