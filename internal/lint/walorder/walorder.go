// Package walorder verifies the write-ahead ordering invariant inside
// the known mutation entry points: the durable journal (WAL append /
// store create) must be written before any shared in-memory state is
// touched, so an acknowledged batch is always recoverable and a failed
// one leaves no trace.
//
// The check is positional within one entry-point body: every mutation of
// shared state (a method call that adds edges/bits to a graph or index
// reachable from the receiver, or an assignment into the receiver's
// fields or maps) must appear after the first journaling call. Freshly
// allocated entries (ge := &graphEntry{...}) are not shared until they
// are installed, so populating them before the journal write is fine;
// entries obtained from the receiver's state are shared and are not.
package walorder

import (
	"go/ast"
	"go/token"

	"cfpq/internal/lint"
)

// Analyzer is the walorder check.
var Analyzer = &lint.Analyzer{
	Name: "walorder",
	Doc:  "verify mutation entry points journal to the WAL/store before touching shared in-memory state",
	Run:  run,
}

// entryPoints are the mutation entry points, matched by method name on
// the given receiver type names: the library handle's AddEdges and the
// service's one batch-apply, one graph install and one grammar install
// (its exported mutators all funnel into those). They are the paths PR 4
// (durable store) and PR 7 (replication) established the write-ahead
// protocol on.
var entryPoints = map[string]map[string]bool{
	"AddEdges":        {"Prepared": true},
	"applyBatch":      {"Service": true},
	"installGraph":    {"Service": true},
	"registerGrammar": {"Service": true},
}

// journalMethods are the calls that constitute the durable write.
var journalMethods = map[string]bool{
	"AppendEdges":      true,
	"Append":           true,
	"AppendReplicated": true,
	"CreateGraph":      true,
	"CreateGraphAt":    true,
	"SaveGrammar":      true,
}

// journalReceivers are the named types the journal methods live on (the
// root package's WAL interface, the store, and the store's per-graph
// log).
var journalReceivers = map[string]bool{"WAL": true, "Store": true, "Log": true}

// mutMethods are method names that mutate a graph, index or matrix.
var mutMethods = map[string]bool{
	"AddEdge":    true,
	"EnsureNode": true,
	"Set":        true,
	"Or":         true,
	"AddMul":     true,
	"Grow":       true,
	"Intern":     true,
}

// sharedEntryTypes are per-name state entries: a value of one of these
// types read out of the receiver is shared serving state, while a
// freshly allocated one is still private.
var sharedEntryTypes = map[string]bool{"graphEntry": true, "grammarEntry": true, "indexEntry": true}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil {
				continue
			}
			recvs, isEntry := entryPoints[fn.Name.Name]
			if !isEntry {
				continue
			}
			recvName := receiverTypeName(pass, fn)
			if !recvs[recvName] {
				continue
			}
			checkEntryPoint(pass, fn)
		}
	}
	return nil
}

// receiverTypeName names the method's receiver type.
func receiverTypeName(pass *lint.Pass, fn *ast.FuncDecl) string {
	if len(fn.Recv.List) == 0 {
		return ""
	}
	if tv, ok := pass.TypesInfo.Types[fn.Recv.List[0].Type]; ok {
		return lint.TypeName(tv.Type)
	}
	return ""
}

// checkEntryPoint verifies journal-before-mutate ordering in one body.
func checkEntryPoint(pass *lint.Pass, fn *ast.FuncDecl) {
	recvObj := receiverObj(pass, fn)
	fresh := make(map[string]bool) // locals allocated in this body (not shared yet)
	journalPos := token.NoPos

	// First sweep: find the first journal call and the freshly allocated
	// entry locals.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if isFreshAlloc(rhs) {
					fresh[id.Name] = true
				}
			}
		case *ast.CallExpr:
			if journalPos == token.NoPos && isJournalCall(pass, n) {
				journalPos = n.Pos()
			}
		}
		return true
	})
	if journalPos == token.NoPos {
		pass.Reportf(fn.Name.Pos(), "mutation entry point %s never journals to the WAL/store; write-ahead ordering (journal, then mutate) is required", fn.Name.Name)
		return
	}

	// Second sweep: any shared-state mutation positioned before the first
	// journal call violates write-ahead ordering. Function literals are
	// skipped: they execute at call time, not where they are defined.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil || n.Pos() >= journalPos {
			return true
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if target, ok := mutationCall(pass, n, recvObj, fresh); ok {
				pass.Reportf(n.Pos(), "%s mutates in-memory state before the journal write; write-ahead ordering requires journaling first", target)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if target, ok := sharedStateLHS(pass, lhs, recvObj, fresh); ok {
					pass.Reportf(lhs.Pos(), "assignment to %s mutates in-memory state before the journal write; write-ahead ordering requires journaling first", target)
				}
			}
		case *ast.IncDecStmt:
			if target, ok := sharedStateLHS(pass, n.X, recvObj, fresh); ok {
				pass.Reportf(n.Pos(), "update of %s mutates in-memory state before the journal write; write-ahead ordering requires journaling first", target)
			}
		}
		return true
	})
}

// receiverObj returns the receiver identifier's object.
func receiverObj(pass *lint.Pass, fn *ast.FuncDecl) map[string]bool {
	names := make(map[string]bool)
	for _, field := range fn.Recv.List {
		for _, name := range field.Names {
			names[name.Name] = true
		}
	}
	return names
}

// isFreshAlloc reports whether rhs allocates a new value (&T{...},
// new(T), T{...}) rather than reading shared state.
func isFreshAlloc(rhs ast.Expr) bool {
	switch rhs := rhs.(type) {
	case *ast.UnaryExpr:
		if rhs.Op == token.AND {
			_, isLit := rhs.X.(*ast.CompositeLit)
			return isLit
		}
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := rhs.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// isJournalCall matches a durable-write call: a journal method on a WAL /
// Store / Log typed value.
func isJournalCall(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !journalMethods[sel.Sel.Name] {
		return false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	return journalReceivers[lint.TypeName(tv.Type)]
}

// mutationCall matches a state-mutating method call on shared state: the
// receiver chain must start at the method receiver or at a shared entry
// local (not a fresh allocation).
func mutationCall(pass *lint.Pass, call *ast.CallExpr, recvNames, fresh map[string]bool) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !mutMethods[sel.Sel.Name] {
		return "", false
	}
	base := lint.ReceiverBase(sel.X)
	if base == nil {
		return "", false
	}
	if recvNames[base.Name] {
		return renderSel(sel), true
	}
	if fresh[base.Name] {
		return "", false
	}
	if tv, ok := pass.TypesInfo.Types[base]; ok && sharedEntryTypes[lint.TypeName(tv.Type)] {
		return renderSel(sel), true
	}
	return "", false
}

// sharedStateLHS matches an assignment target inside the receiver's (or a
// shared entry's) state: a field selector or map/slice index rooted at it.
func sharedStateLHS(pass *lint.Pass, lhs ast.Expr, recvNames, fresh map[string]bool) (string, bool) {
	switch lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
	default:
		return "", false
	}
	base := lint.ReceiverBase(lhs)
	if base == nil || fresh[base.Name] {
		return "", false
	}
	if recvNames[base.Name] {
		return exprString(lhs), true
	}
	if tv, ok := pass.TypesInfo.Types[base]; ok && sharedEntryTypes[lint.TypeName(tv.Type)] {
		return exprString(lhs), true
	}
	return "", false
}

// renderSel renders receiver.Method for the diagnostic.
func renderSel(sel *ast.SelectorExpr) string {
	return exprString(sel.X) + "." + sel.Sel.Name
}

// exprString renders simple selector/index chains for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	}
	return "state"
}
