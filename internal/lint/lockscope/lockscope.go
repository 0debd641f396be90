// Package lockscope flags blocking operations reachable while a mutex on
// one of the engine's guarded structs is held.
//
// The serving stack's locks (Prepared.mu, Service.mu, the per-index
// entry locks, the store's per-graph log locks) protect hot paths that
// every query traverses; anything that can park the goroutine while one
// of them is held — a channel operation, file
// I/O and fsyncs, HTTP round trips, sleeping, or handing control to a
// caller-supplied callback (including iter.Seq yields, the
// iterate-under-RLock deadlock this repo once shipped and removed) —
// stalls every other request behind the lock, or deadlocks outright when
// the callback re-enters the same handle.
//
// Write-ahead journaling is the deliberate exception: where a WAL append
// and fsync MUST happen under a lock readers share (that ordering is the
// durability protocol), the site carries a //lint:allow suppression with
// its justification instead of being special-cased here. Prepared.writer
// and the registry's graphEntry.writer, which only serialise writers — no
// read path ever takes them — are not such locks (see mutexCall; graphEntry
// holds no other lock and is not guarded).
package lockscope

import (
	"go/ast"
	"go/token"
	"go/types"

	"cfpq/internal/lint"
)

// Analyzer is the lockscope check.
var Analyzer = &lint.Analyzer{
	Name: "lockscope",
	Doc:  "flag blocking operations (channel ops, file I/O, HTTP, sleeps, caller callbacks) performed while a guarded struct's mutex is held",
	Run:  run,
}

// guardedTypes are the structs whose mutexes fence the serving hot paths.
// Matching is by bare type name so testdata fixtures can declare their
// own stand-ins; the set mirrors the lock owners in the tree: the
// Prepared handle (whose mu also guards its window of published deltas
// and its subscriptions' positions), the query
// Service and its per-index entries, the durable Store and its per-graph
// logs, and the read replica.
var guardedTypes = map[string]bool{
	"Prepared":   true,
	"Service":    true,
	"Store":      true,
	"Replicator": true,
	"indexEntry": true,
	"graphLog":   true,
}

// journalReceivers are named types whose methods perform durable I/O
// (fsynced appends, snapshot writes); calling one is blocking by
// definition.
var journalReceivers = map[string]bool{
	"Store": true,
	"Log":   true,
}

// journalMethods are the durable-I/O method names matched on
// journalReceivers.
var journalMethods = map[string]bool{
	"AppendEdges":      true,
	"Append":           true,
	"AppendReplicated": true,
	"CreateGraph":      true,
	"CreateGraphAt":    true,
	"SaveGrammar":      true,
	"Snapshot":         true,
	"Compact":          true,
	"CompactIfDue":     true,
	"Sync":             true,
}

// osFileMethods are the *os.File methods that touch the disk.
var osFileMethods = map[string]bool{
	"Sync":        true,
	"Write":       true,
	"WriteAt":     true,
	"WriteString": true,
	"ReadAt":      true,
	"Truncate":    true,
}

// httpClientMethods block on a network round trip.
var httpClientMethods = map[string]bool{
	"Do": true, "Get": true, "Post": true, "PostForm": true, "Head": true,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			s := &scanner{pass: pass, params: make(map[types.Object]bool)}
			s.addParams(fn.Type)
			s.stmtList(fn.Body.List)
		}
	}
	return nil
}

// heldLock is one acquired guarded mutex.
type heldLock struct {
	owner    string // guarded type name
	deferred bool   // released by defer: held until function end
}

// scanner walks one function body tracking which guarded locks are held.
type scanner struct {
	pass *lint.Pass
	held []heldLock
	// params collects the parameter objects of the function and of every
	// function literal scanned inside it: calls to these are
	// caller-supplied callbacks (iter.Seq yields included), as opposed to
	// calls to locally defined closures.
	params map[types.Object]bool
}

// addParams records ft's parameters as caller-supplied function values.
func (s *scanner) addParams(ft *ast.FuncType) {
	if ft == nil || ft.Params == nil {
		return
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj, ok := s.pass.TypesInfo.Defs[name]; ok {
				s.params[obj] = true
			}
		}
	}
}

// stmtList scans statements in order. Locks acquired in the list are
// scoped to its remainder unless released by a deferred unlock, which
// pins them for the rest of the function.
func (s *scanner) stmtList(list []ast.Stmt) {
	acquired := 0
	for _, st := range list {
		switch st := st.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if owner, locks := s.lockCall(call); locks {
					s.held = append(s.held, heldLock{owner: owner})
					acquired++
					continue
				}
				if owner, unlocks := s.unlockCall(call); unlocks {
					if s.release(owner) && acquired > 0 {
						acquired--
					}
					continue
				}
			}
			s.stmt(st)
		case *ast.DeferStmt:
			if owner, unlocks := s.unlockCall(st.Call); unlocks {
				s.pin(owner)
				continue
			}
			s.stmt(st)
		default:
			s.stmt(st)
		}
	}
	// Locks acquired in this list and not pinned by a deferred unlock go
	// out of scope with it.
	for i := 0; i < acquired; i++ {
		for j := len(s.held) - 1; j >= 0; j-- {
			if !s.held[j].deferred {
				s.held = append(s.held[:j], s.held[j+1:]...)
				break
			}
		}
	}
}

// nested scans a nested statement list (an if/for/select body, or a
// function literal) with its own copy of the lock state: an unlock on an
// early-return path inside the block must not clear the lock for the
// code that follows the block, and a lock acquired inside the block does
// not survive it.
func (s *scanner) nested(list []ast.Stmt) {
	saved := append([]heldLock(nil), s.held...)
	s.stmtList(list)
	s.held = saved
}

// lockCall reports whether call is guardedRecv.mu.Lock() / .RLock().
func (s *scanner) lockCall(call *ast.CallExpr) (owner string, ok bool) {
	return s.mutexCall(call, "Lock", "RLock")
}

// unlockCall reports whether call is guardedRecv.mu.Unlock() / .RUnlock().
func (s *scanner) unlockCall(call *ast.CallExpr) (owner string, ok bool) {
	return s.mutexCall(call, "Unlock", "RUnlock")
}

// mutexCall matches a call of one of the named methods on a sync.Mutex /
// sync.RWMutex field of a guarded struct and returns the struct's name.
func (s *scanner) mutexCall(call *ast.CallExpr, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := false
	for _, n := range names {
		if sel.Sel.Name == n {
			match = true
		}
	}
	if !match {
		return "", false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if tv, ok := s.pass.TypesInfo.Types[field.X]; ok {
		if owner := lint.TypeName(tv.Type); guardedTypes[owner] {
			if owner == "Prepared" && field.Sel.Name == "writer" {
				// Serialises AddEdges calls among themselves; no read path
				// takes it, so blocking under it stalls no query.
				return "", false
			}
			if isSyncMutex(s.pass.TypesInfo.Types[field].Type) {
				return owner, true
			}
		}
	}
	return "", false
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (or a
// pointer to one).
func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// release pops the most recent non-deferred lock of the owner.
func (s *scanner) release(owner string) bool {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].owner == owner && !s.held[i].deferred {
			s.held = append(s.held[:i], s.held[i+1:]...)
			return true
		}
	}
	return false
}

// pin marks the most recent lock of the owner as deferred-released.
func (s *scanner) pin(owner string) {
	for i := len(s.held) - 1; i >= 0; i-- {
		if s.held[i].owner == owner && !s.held[i].deferred {
			s.held[i].deferred = true
			return
		}
	}
}

// stmt scans one statement (and its nested statements/expressions) under
// the current lock state.
func (s *scanner) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		s.nested(st.List)
	case *ast.IfStmt:
		s.maybeStmt(st.Init)
		s.expr(st.Cond)
		s.nested(st.Body.List)
		s.maybeStmt(st.Else)
	case *ast.ForStmt:
		s.maybeStmt(st.Init)
		if st.Cond != nil {
			s.expr(st.Cond)
		}
		s.maybeStmt(st.Post)
		s.nested(st.Body.List)
	case *ast.RangeStmt:
		s.expr(st.X)
		s.nested(st.Body.List)
	case *ast.SwitchStmt:
		s.maybeStmt(st.Init)
		if st.Tag != nil {
			s.expr(st.Tag)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					s.expr(e)
				}
				s.nested(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		s.maybeStmt(st.Init)
		s.maybeStmt(st.Assign)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.nested(cc.Body)
			}
		}
	case *ast.SelectStmt:
		s.selectStmt(st)
	case *ast.GoStmt:
		// The spawned goroutine does not hold this goroutine's locks;
		// only the call's argument expressions are evaluated here.
		for _, arg := range st.Call.Args {
			if _, ok := arg.(*ast.FuncLit); ok {
				continue
			}
			s.expr(arg)
		}
	case *ast.DeferStmt:
		// Argument expressions are evaluated at defer time (under the
		// lock); the body of a deferred closure runs at return, which —
		// with a deferred unlock in LIFO order — may still be under the
		// lock, so it is scanned too.
		s.expr(st.Call)
	case *ast.SendStmt:
		s.blockingOp(st.Pos(), "channel send")
		s.expr(st.Chan)
		s.expr(st.Value)
	case *ast.ExprStmt:
		s.expr(st.X)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.expr(e)
		}
		for _, e := range st.Lhs {
			s.expr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e)
		}
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		s.expr(st.X)
	}
}

func (s *scanner) maybeStmt(st ast.Stmt) {
	if st != nil {
		s.stmt(st)
	}
}

// selectStmt scans a select. With a default clause every communication is
// non-blocking by construction, so the comm operations themselves are
// exempt; the clause bodies are scanned either way.
func (s *scanner) selectStmt(st *ast.SelectStmt) {
	hasDefault := false
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm != nil && !hasDefault {
			s.blockingOp(cc.Comm.Pos(), "blocking select communication")
		}
		s.nested(cc.Body)
	}
}

// expr scans one expression for blocking operations.
func (s *scanner) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal reached here is either called in place or stored
			// for a call later in the same function — both execute under
			// the current lock state, so scan the body with it. (go
			// statements and AfterFunc callbacks are filtered before
			// reaching expr.)
			s.addParams(n.Type)
			s.nested(n.Body.List)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.blockingOp(n.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			return s.call(n)
		}
		return true
	})
}

// call classifies one call expression; it returns false when the walk
// should not descend further (the call's arguments were handled here).
func (s *scanner) call(call *ast.CallExpr) bool {
	// Deferred-execution callback registrars: the closure runs later on
	// another goroutine, without this lock.
	if name, pkg := pkgFuncCallee(s.pass.TypesInfo, call); name == "AfterFunc" && (pkg == "time" || pkg == "context") {
		for _, arg := range call.Args {
			if _, ok := arg.(*ast.FuncLit); ok {
				continue
			}
			s.expr(arg)
		}
		return false
	}
	if len(s.held) > 0 {
		if what, ok := s.blockingCall(call); ok {
			s.blockingOp(call.Pos(), what)
		}
	}
	return true
}

// blockingOp reports a blocking operation if any guarded lock is held.
func (s *scanner) blockingOp(pos token.Pos, what string) {
	if len(s.held) == 0 {
		return
	}
	owner := s.held[len(s.held)-1].owner
	s.pass.Reportf(pos, "%s while holding %s lock; blocking operations under a guarded mutex stall every request behind it", what, owner)
}

// blockingCall classifies the callee of one call as blocking or not.
func (s *scanner) blockingCall(call *ast.CallExpr) (string, bool) {
	info := s.pass.TypesInfo
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		// Calling a function-typed parameter: a caller-supplied callback
		// (iter.Seq yields included) — handing it control under the lock
		// invites re-entrant deadlock. Locally defined closures are the
		// function's own code and are scanned directly instead.
		if obj, ok := info.Uses[fun]; ok && s.params[obj] {
			return "call to caller-supplied function " + fun.Name, true
		}
	case *ast.SelectorExpr:
		name, pkg := pkgFuncCallee(info, call)
		if pkg == "time" && name == "Sleep" {
			return "time.Sleep", true
		}
		if pkg == "net/http" && httpClientMethods[name] {
			return "net/http request", true
		}
		recv := recvTypeName(info, fun)
		switch {
		case recv == "File" && osFileMethods[name] && recvPkgPath(info, fun) == "os":
			return "file I/O (os.File." + name + ")", true
		case recv == "Client" && httpClientMethods[name]:
			return "net/http request", true
		case recv == "WaitGroup" && name == "Wait" && recvPkgPath(info, fun) == "sync":
			return "sync.WaitGroup.Wait", true
		case journalReceivers[recv] && journalMethods[name]:
			return "durable journal I/O (" + recv + "." + name + ")", true
		}
		// A call through a function-typed struct field is a stored
		// callback (trace hooks and the like).
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.FieldVal {
			if _, isFunc := sel.Type().Underlying().(*types.Signature); isFunc {
				return "call to callback field " + fun.Sel.Name, true
			}
		}
	}
	return "", false
}

// pkgFuncCallee matches a call to a package-level function pkg.Name and
// returns its name and package path; method calls return "" for the path.
func pkgFuncCallee(info *types.Info, call *ast.CallExpr) (name, pkgPath string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return sel.Sel.Name, ""
	}
	if pn, ok := info.Uses[ident].(*types.PkgName); ok {
		return sel.Sel.Name, pn.Imported().Path()
	}
	return sel.Sel.Name, ""
}

// recvTypeName names the receiver type of a method call selector.
func recvTypeName(info *types.Info, sel *ast.SelectorExpr) string {
	if tv, ok := info.Types[sel.X]; ok {
		return lint.TypeName(tv.Type)
	}
	return ""
}

// recvPkgPath returns the package path of the receiver's named type.
func recvPkgPath(info *types.Info, sel *ast.SelectorExpr) string {
	tv, ok := info.Types[sel.X]
	if !ok {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path()
	}
	return ""
}
