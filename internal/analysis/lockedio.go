package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockedIO flags blocking operations reachable while a sync.Mutex or
// sync.RWMutex is held: net.Conn reads/writes (net.Buffers.WriteTo on a
// conn included), channel sends/receives (including selects without a
// default), and sync.WaitGroup.Wait. This is the
// PR 1 deadlock class — the seed transport held a global lock across a
// socket write that filled its buffer, starving the accept loop that would
// have drained it. Reachability is intra-package: a locked region calling a
// same-package function that blocks (transitively) is flagged too.
//
// sync.Cond.Wait is deliberately not a blocking op: it releases the mutex
// while waiting, which is the sanctioned way to block under a lock.
var LockedIO = &Analyzer{
	Name:    "lockedio",
	Doc:     "flag blocking operations (conn I/O, channel ops, WaitGroup.Wait) reachable while a mutex is held",
	Applies: func(string) bool { return true },
	Run:     runLockedIO,
}

// blockReason describes why a function (or statement) blocks.
type blockReason struct {
	pos  token.Pos
	desc string
}

func runLockedIO(p *Pass) {
	// Pass 1: per-function blocking summaries, propagated to a fixpoint
	// through same-package calls so `mu.Lock(); f()` is caught when f
	// blocks two calls down.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	summaries := map[*types.Func]*blockReason{}
	for fn, fd := range decls {
		if r := p.directBlock(fd.Body); r != nil {
			summaries[fn] = r
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if summaries[fn] != nil {
				continue
			}
			for _, call := range p.samePackageCalls(fd.Body) {
				callee := p.calleeFunc(call)
				if callee == nil || summaries[callee] == nil {
					continue
				}
				summaries[fn] = &blockReason{
					pos:  call.Pos(),
					desc: fmt.Sprintf("calls %s, which %s", callee.Name(), summaries[callee].desc),
				}
				changed = true
				break
			}
		}
	}

	// Pass 2: scan each function's locked regions for blocking statements.
	for _, fd := range decls {
		p.scanLocked(fd.Body, summaries)
	}
}

// blockOp classifies a single node as a blocking operation, or returns nil.
// The inSelect set holds select statements known to be non-blocking (they
// have a default clause); comm operations inside them are skipped.
func (p *Pass) blockOp(n ast.Node, nonBlockingSelects map[ast.Node]bool) *blockReason {
	switch n := n.(type) {
	case *ast.SendStmt:
		return &blockReason{n.Pos(), "sends on a channel"}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return &blockReason{n.Pos(), "receives from a channel"}
		}
	case *ast.SelectStmt:
		if !nonBlockingSelects[n] {
			return &blockReason{n.Pos(), "blocks in a select"}
		}
	case *ast.RangeStmt:
		if t := p.Info.TypeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return &blockReason{n.Pos(), "ranges over a channel"}
			}
		}
	case *ast.CallExpr:
		if name := p.fullFuncName(n); name == "(*sync.WaitGroup).Wait" {
			return &blockReason{n.Pos(), "waits on a sync.WaitGroup"}
		}
		// fsync stalls on device flush (milliseconds to seconds on a busy
		// disk); held across a mutex it serializes every other critical
		// section on storage latency. The durable manager store's WAL
		// discipline is write-under-lock, sync-outside-lock.
		if name := p.fullFuncName(n); name == "(*os.File).Sync" {
			return &blockReason{n.Pos(), "performs os.File.Sync (fsync)"}
		}
		if fn := p.methodOf(n); fn != nil && (fn.Name() == "Read" || fn.Name() == "Write") {
			if isNetConn(p.recvOf(n)) {
				return &blockReason{n.Pos(), fmt.Sprintf("performs net.Conn.%s", fn.Name())}
			}
		}
		if p.isVectoredConnWrite(n) {
			return &blockReason{n.Pos(), "performs net.Buffers.WriteTo on a net.Conn"}
		}
	}
	return nil
}

// nonBlockingSelects finds select statements with a default clause; their
// comm cases never block.
func nonBlockingSelects(root ast.Node) map[ast.Node]bool {
	out := map[ast.Node]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				out[sel] = true
			}
		}
		return true
	})
	return out
}

// directBlock reports the first blocking operation in the function body
// (ignoring nested function literals, which run on their own goroutine or
// call path, and go statements, whose call runs on a fresh goroutine that
// does not hold the caller's locks).
func (p *Pass) directBlock(body *ast.BlockStmt) *blockReason {
	nbSelects := nonBlockingSelects(body)
	var found *blockReason
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if _, isGo := n.(*ast.GoStmt); isGo {
			return false
		}
		if r := p.blockOp(n, nbSelects); r != nil {
			if !commOfNonBlockingSelect(n, body, nbSelects) {
				found = r
				return false
			}
		}
		return true
	})
	return found
}

// commOfNonBlockingSelect reports whether n is the comm operation of a
// select that has a default clause (and therefore does not block).
func commOfNonBlockingSelect(n ast.Node, root ast.Node, nbSelects map[ast.Node]bool) bool {
	is := false
	ast.Inspect(root, func(m ast.Node) bool {
		sel, ok := m.(*ast.SelectStmt)
		if !ok || !nbSelects[sel] {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(x ast.Node) bool {
				if x == n {
					is = true
				}
				return !is
			})
		}
		return !is
	})
	return is
}

// samePackageCalls lists calls in the body (outside function literals and
// go statements — a spawned goroutine does not block its caller) that
// resolve to functions or methods defined in this package.
func (p *Pass) samePackageCalls(body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if _, isGo := n.(*ast.GoStmt); isGo {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := p.calleeFunc(call); fn != nil && fn.Pkg() == p.Pkg {
			out = append(out, call)
		}
		return true
	})
	return out
}

// calleeFunc resolves a call to the *types.Func it statically invokes.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// lockState tracks mutex possession during the structural scan.
type lockState struct {
	depth        int       // balanced Lock/Unlock nesting
	heldToEnd    bool      // a defer mu.Unlock() pins the lock to function end
	lockPos      token.Pos // where the innermost live lock was taken
	reportedOnce map[token.Pos]bool
}

func (ls *lockState) held() bool { return ls.depth > 0 || ls.heldToEnd }

// scanLocked walks the function body in source order, tracking mutex
// acquisition and flagging blocking statements inside locked regions.
//
// The scan is an approximation with two deliberate properties: a
// `defer mu.Unlock()` keeps the lock held to the end of the function, and an
// Unlock inside a terminating branch (early return) does not release the
// lock on the fall-through path.
func (p *Pass) scanLocked(body *ast.BlockStmt, summaries map[*types.Func]*blockReason) {
	ls := &lockState{reportedOnce: map[token.Pos]bool{}}
	nbSelects := nonBlockingSelects(body)
	p.scanStmts(body.List, ls, summaries, nbSelects)
}

func (p *Pass) scanStmts(stmts []ast.Stmt, ls *lockState, summaries map[*types.Func]*blockReason, nbSelects map[ast.Node]bool) {
	for _, s := range stmts {
		p.scanStmt(s, ls, summaries, nbSelects)
	}
}

func (p *Pass) scanStmt(s ast.Stmt, ls *lockState, summaries map[*types.Func]*blockReason, nbSelects map[ast.Node]bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			switch p.mutexOp(call) {
			case "Lock", "RLock":
				ls.depth++
				ls.lockPos = call.Pos()
				return
			case "Unlock", "RUnlock":
				if ls.depth > 0 {
					ls.depth--
				}
				return
			}
		}
		p.checkBlocking(s, ls, summaries, nbSelects)
	case *ast.DeferStmt:
		if op := p.mutexOp(st.Call); op == "Unlock" || op == "RUnlock" {
			if ls.held() {
				ls.heldToEnd = true
				if ls.depth > 0 {
					ls.depth--
				}
			}
			return
		}
		p.checkBlocking(s, ls, summaries, nbSelects)
	case *ast.BlockStmt:
		p.scanStmts(st.List, ls, summaries, nbSelects)
	case *ast.IfStmt:
		if st.Init != nil {
			p.scanStmt(st.Init, ls, summaries, nbSelects)
		}
		p.checkBlockingExpr(st.Cond, st.Cond.Pos(), ls, summaries, nbSelects)
		p.scanBranch(st.Body, ls, summaries, nbSelects)
		if st.Else != nil {
			p.scanBranch(st.Else, ls, summaries, nbSelects)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			p.scanStmt(st.Init, ls, summaries, nbSelects)
		}
		if st.Cond != nil {
			p.checkBlockingExpr(st.Cond, st.Cond.Pos(), ls, summaries, nbSelects)
		}
		p.scanBranch(st.Body, ls, summaries, nbSelects)
	case *ast.RangeStmt:
		// Only the range expression itself (a channel range blocks); the
		// body is scanned structurally so its own lock transitions count.
		if ls.held() {
			if r := p.blockOp(st, nbSelects); r != nil && !ls.reportedOnce[r.pos] {
				ls.reportedOnce[r.pos] = true
				p.Reportf(r.pos, "%s while a mutex is held (locked at %s): the PR 1 deadlock class",
					r.desc, p.Fset.Position(ls.lockPos))
			}
		}
		p.checkBlockingExpr(st.X, st.X.Pos(), ls, summaries, nbSelects)
		p.scanBranch(st.Body, ls, summaries, nbSelects)
	case *ast.SwitchStmt:
		if st.Init != nil {
			p.scanStmt(st.Init, ls, summaries, nbSelects)
		}
		if st.Tag != nil {
			p.checkBlockingExpr(st.Tag, st.Tag.Pos(), ls, summaries, nbSelects)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				p.scanBranch(&ast.BlockStmt{List: cc.Body}, ls, summaries, nbSelects)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				p.scanBranch(&ast.BlockStmt{List: cc.Body}, ls, summaries, nbSelects)
			}
		}
	case *ast.SelectStmt:
		if ls.held() && !nbSelects[st] && !ls.reportedOnce[st.Pos()] {
			ls.reportedOnce[st.Pos()] = true
			p.Reportf(st.Pos(), "blocks in a select while a mutex is held (locked at %s): the PR 1 deadlock class",
				p.Fset.Position(ls.lockPos))
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				p.scanBranch(&ast.BlockStmt{List: cc.Body}, ls, summaries, nbSelects)
			}
		}
	case *ast.GoStmt:
		// The spawned goroutine does not hold the caller's lock.
		return
	default:
		p.checkBlocking(s, ls, summaries, nbSelects)
	}
}

// scanBranch scans a conditional branch with a copy of the lock state; lock
// transitions inside a branch that terminates (returns/panics) do not leak
// to the fall-through path, while a branch that falls through propagates its
// final state.
func (p *Pass) scanBranch(s ast.Stmt, ls *lockState, summaries map[*types.Func]*blockReason, nbSelects map[ast.Node]bool) {
	branch := *ls
	p.scanStmt(s, &branch, summaries, nbSelects)
	if !terminates(s) {
		ls.depth = branch.depth
		ls.heldToEnd = branch.heldToEnd
		ls.lockPos = branch.lockPos
	}
}

// checkBlocking flags the first blocking operation inside stmt when a lock
// is held (searching sub-expressions, skipping nested function literals).
func (p *Pass) checkBlocking(s ast.Stmt, ls *lockState, summaries map[*types.Func]*blockReason, nbSelects map[ast.Node]bool) {
	p.checkBlockingExpr(s, s.Pos(), ls, summaries, nbSelects)
}

func (p *Pass) checkBlockingExpr(root ast.Node, pos token.Pos, ls *lockState, summaries map[*types.Func]*blockReason, nbSelects map[ast.Node]bool) {
	if !ls.held() || root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if r := p.blockOp(n, nbSelects); r != nil {
			if !commOfNonBlockingSelect(n, root, nbSelects) && !ls.reportedOnce[r.pos] {
				ls.reportedOnce[r.pos] = true
				p.Reportf(r.pos, "%s while a mutex is held (locked at %s): the PR 1 deadlock class",
					r.desc, p.Fset.Position(ls.lockPos))
			}
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := p.calleeFunc(call); fn != nil && fn.Pkg() == p.Pkg {
				if sum := summaries[fn]; sum != nil && !ls.reportedOnce[call.Pos()] {
					ls.reportedOnce[call.Pos()] = true
					p.Reportf(call.Pos(), "call to %s, which %s, while a mutex is held (locked at %s)",
						fn.Name(), sum.desc, p.Fset.Position(ls.lockPos))
				}
			}
		}
		return true
	})
}

// mutexOp reports "Lock"/"RLock"/"Unlock"/"RUnlock" when the call is that
// method on a sync.Mutex or sync.RWMutex (including promoted fields), else "".
func (p *Pass) mutexOp(call *ast.CallExpr) string {
	name := p.fullFuncName(call)
	switch name {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		return "Lock"
	case "(*sync.RWMutex).RLock":
		return "RLock"
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		return "Unlock"
	case "(*sync.RWMutex).RUnlock":
		return "RUnlock"
	}
	return ""
}
