// Package analysis is swapvet's analyzer framework: a standard-library-only
// static-analysis pass (go/ast + go/types, no external driver) encoding the
// project's runtime invariants as machine-checked rules.
//
// The six analyzers and the invariants they enforce:
//
//   - simdeterminism: simulation and figure packages run on virtual time and
//     seeded rng streams only — no wall clock, no global math/rand, no map
//     iteration order leaking into output.
//   - lockedio: no blocking operation (net.Conn Read/Write, channel
//     send/receive, sync.WaitGroup.Wait) while a sync.Mutex/RWMutex is held —
//     the PR 1 deadlock class.
//   - deadlineio: every net.Conn read/write in the live transport packages is
//     preceded by a deadline, so a dead peer fails one operation instead of
//     hanging the mesh.
//   - mpierr: no silently discarded error from MPI operations or gob
//     encode/decode.
//   - obsdiscipline: no direct console printing from the runtime packages —
//     diagnostics go through obs events or returned errors.
//   - clockdiscipline: no bare wall-clock use (time.Now/Sleep/After/timers)
//     in the live runtime packages — time flows through an injected
//     clock.Clock so tests and sweeps can fake or compress it.
//
// A finding can be suppressed with a trailing or preceding comment
//
//	//swapvet:ignore <analyzer> -- rationale
//
// which is reserved for operations that are blocking, deadline-free or
// wall-clock-bound by design (e.g. a reader loop that a shutdown unblocks by
// closing its socket, or a kernel socket deadline that cannot follow a fake
// timeline). The driver validates every directive: the analyzer name must be
// one it knows and the rationale is mandatory, so a typo cannot silently
// disarm a rule (CheckIgnores).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one swapvet rule.
type Analyzer struct {
	Name string
	Doc  string
	// Applies reports whether the driver should run this analyzer on the
	// package with the given import path. Tests bypass it to run analyzers
	// directly on fixture packages.
	Applies func(pkgPath string) bool
	Run     func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzer applies one analyzer to a loaded package, honoring ignore
// directives, and returns its findings sorted by position.
func RunAnalyzer(a *Analyzer, lp *LoadedPackage) []Finding {
	pass := &Pass{
		Analyzer: a,
		Fset:     lp.Fset,
		Files:    lp.Files,
		Pkg:      lp.Pkg,
		Info:     lp.Info,
	}
	a.Run(pass)
	found := filterIgnored(pass.findings, lp)
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].Pos, found[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return found
}

// RunAll applies every analyzer whose Applies accepts the package, plus
// the driver's own directive audit (CheckIgnores): a malformed or
// misspelled //swapvet:ignore is itself a finding, never a silent no-op.
func RunAll(analyzers []*Analyzer, lp *LoadedPackage) []Finding {
	out := CheckIgnores(lp)
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(lp.ImportPath) {
			continue
		}
		out = append(out, RunAnalyzer(a, lp)...)
	}
	return out
}

// ignorePrefix marks a swapvet suppression directive comment.
const ignorePrefix = "//swapvet:ignore"

// CheckIgnores audits every //swapvet:ignore directive in the package:
// the directive must name an analyzer the suite knows (a typo would
// otherwise suppress nothing, silently) and must carry a `-- rationale`
// (an unexplained ignore is indistinguishable from a leftover). Each
// violation is a finding attributed to the pseudo-analyzer "swapvet".
func CheckIgnores(lp *LoadedPackage) []Finding {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{
			Pos:      lp.Fset.Position(pos),
			Analyzer: "swapvet",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range lp.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := text[len(ignorePrefix):]
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // a different word, e.g. //swapvet:ignoreme
				}
				directive, rationale, hasRationale := strings.Cut(rest, "--")
				name := strings.TrimSpace(directive)
				switch {
				case name == "":
					report(c.Pos(), "ignore directive names no analyzer; write %s <analyzer> -- rationale", ignorePrefix)
				case !known[name]:
					report(c.Pos(), "ignore directive names unknown analyzer %q (known: %s)", name, strings.Join(knownNames(), ", "))
				}
				if !hasRationale || strings.TrimSpace(rationale) == "" {
					report(c.Pos(), "ignore directive has no rationale; write %s <analyzer> -- rationale", ignorePrefix)
				}
			}
		}
	}
	return out
}

func knownNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

var ignoreRE = regexp.MustCompile(`^//swapvet:ignore(?:\s+([a-z]+))?(?:\s+--.*)?$`)

// filterIgnored drops findings whose line (or the line above) carries a
// //swapvet:ignore directive naming the analyzer (or naming no analyzer,
// which suppresses all of them).
func filterIgnored(found []Finding, lp *LoadedPackage) []Finding {
	// ignored[file][line] = set of analyzer names ("" = all).
	ignored := map[string]map[int]map[string]bool{}
	note := func(pos token.Position, name string) {
		byLine := ignored[pos.Filename]
		if byLine == nil {
			byLine = map[int]map[string]bool{}
			ignored[pos.Filename] = byLine
		}
		for _, line := range []int{pos.Line, pos.Line + 1} {
			if byLine[line] == nil {
				byLine[line] = map[string]bool{}
			}
			byLine[line][name] = true
		}
	}
	for _, f := range lp.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(strings.TrimSpace(c.Text))
				if m == nil {
					continue
				}
				note(lp.Fset.Position(c.Pos()), m[1])
			}
		}
	}
	var kept []Finding
	for _, f := range found {
		names := ignored[f.Pos.Filename][f.Pos.Line]
		if names[""] || names[f.Analyzer] {
			continue
		}
		kept = append(kept, f)
	}
	return kept
}

// ---- shared type helpers ----

// pkgFunc reports whether the call invokes the package-level function
// pkgPath.name, resolving through the type info.
func (p *Pass) pkgFunc(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if obj, isFn := p.Info.Uses[fun.Sel].(*types.Func); isFn && obj.Pkg() != nil {
			if sig, isSig := obj.Type().(*types.Signature); isSig && sig.Recv() == nil {
				return obj.Pkg().Path(), obj.Name(), true
			}
		}
	case *ast.Ident:
		if obj, isFn := p.Info.Uses[fun].(*types.Func); isFn && obj.Pkg() != nil {
			if sig, isSig := obj.Type().(*types.Signature); isSig && sig.Recv() == nil {
				return obj.Pkg().Path(), obj.Name(), true
			}
		}
	}
	return "", "", false
}

// methodOf resolves a method call to its *types.Func (nil if the call is not
// a method call the type info can resolve).
func (p *Pass) methodOf(call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return nil
	}
	return fn
}

// namedPkgType unwraps pointers and reports (package path, type name) for a
// named or interface-named type, or ok=false.
func namedPkgType(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}

// isNetConn reports whether t is net.Conn or one of the net package's
// concrete connection types (possibly behind a pointer).
func isNetConn(t types.Type) bool {
	if t == nil {
		return false
	}
	pkg, name, ok := namedPkgType(t)
	if !ok || pkg != "net" {
		return false
	}
	switch name {
	case "Conn", "TCPConn", "UDPConn", "UnixConn", "IPConn":
		return true
	}
	return false
}

// isVectoredConnWrite reports whether the call is net.Buffers.WriteTo on
// a connection: conn.Write's writev form, which the TCP transport uses
// to send a header and the caller's payload in one syscall.
func (p *Pass) isVectoredConnWrite(call *ast.CallExpr) bool {
	return p.fullFuncName(call) == "(*net.Buffers).WriteTo" &&
		len(call.Args) == 1 && isNetConn(p.Info.TypeOf(call.Args[0]))
}

// recvOf reports the static type of a method call's receiver expression.
func (p *Pass) recvOf(call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return p.Info.TypeOf(sel.X)
}

// fullFuncName reports the types.Func full name ("(*sync.Mutex).Lock") for a
// method call, or "".
func (p *Pass) fullFuncName(call *ast.CallExpr) string {
	fn := p.methodOf(call)
	if fn == nil {
		return ""
	}
	return fn.FullName()
}

// returnsError reports whether the function's last result is error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// terminates reports whether the statement unconditionally transfers control
// out of the enclosing block (return, panic-like call, goto, or
// break/continue).
func terminates(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		if n := len(st.List); n > 0 {
			return terminates(st.List[n-1])
		}
	}
	return false
}
