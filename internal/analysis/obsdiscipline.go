package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// obsPkgs are the runtime packages whose hot paths must stay silent:
// the MPI substrate, the swapping runtime, the simulation kernel and
// the telemetry series primitives the hub samples into. Diagnostics go
// through obs events (structured, exportable, cheap when disabled) or
// back to the caller as errors; direct printing from these packages
// bypasses both the rank attribution and the enabled gate, and corrupts
// the stdout of every command that embeds them.
var obsPkgs = map[string]bool{
	"repro/internal/mpi":        true,
	"repro/internal/swaprt":     true,
	"repro/internal/simkern":    true,
	"repro/internal/obs/series": true,
	// The flight recorder sits on the tracer's emit hot path (every
	// event flows through Observe) and dumps during crash handling —
	// both places where a stray print would interleave with the very
	// output being rescued. Its diagnostics go through Config.Logf.
	"repro/internal/obs/flight": true,
	// The manager store runs inside the swapmgr daemon and the harness
	// supervisor: it sits on the decision path (fsync before every ack),
	// where a stray print would corrupt the embedding command's stdout.
	"repro/internal/swaprt/mgrstore": true,
	// The policy lens hangs off the manager's decide hot path and the
	// leader's swap-point bookkeeping: its findings go out as typed obs
	// events and registry metrics, never direct prints.
	"repro/internal/swaprt/policylens": true,
}

// obsApplies also sweeps in swapmon's non-UI subpackages (monclient
// renders onto caller-supplied writers so the same code serves the
// dashboard, the CI smoke check and tests); the swapmon main package
// itself is the UI and may print.
func obsApplies(pkgPath string) bool {
	return obsPkgs[pkgPath] || strings.HasPrefix(pkgPath, "repro/cmd/swapmon/")
}

// logFuncs are the stdlib log package-level printers (all write to the
// process-global logger).
var logFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
}

// ObsDiscipline forbids direct console output in the runtime packages:
// fmt print functions (including Fprint* aimed at os.Stdout/os.Stderr),
// the global log package, and the println/print builtins. Structured
// events belong in obs; failures go back to the caller as errors, or to
// a caller-injected log sink where a component has one.
var ObsDiscipline = &Analyzer{
	Name:    "obsdiscipline",
	Doc:     "forbid fmt/log console printing in the runtime packages (mpi, swaprt, simkern, obs/series, obs/flight, swapmon/monclient); use obs events or return errors",
	Applies: obsApplies,
	Run:     runObsDiscipline,
}

func runObsDiscipline(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			p.checkObsCall(call)
			return true
		})
	}
}

func (p *Pass) checkObsCall(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "println" || b.Name() == "print") {
			p.Reportf(call.Pos(), "builtin %s in a runtime package; emit an obs event or return an error", b.Name())
			return
		}
	}
	pkg, name, ok := p.pkgFunc(call)
	if !ok {
		return
	}
	switch pkg {
	case "fmt":
		switch name {
		case "Print", "Printf", "Println":
			p.Reportf(call.Pos(), "fmt.%s in a runtime package; emit an obs event or return an error", name)
		case "Fprint", "Fprintf", "Fprintln":
			if len(call.Args) > 0 && isStdStream(p, call.Args[0]) {
				p.Reportf(call.Pos(), "fmt.%s to a standard stream in a runtime package; emit an obs event or return an error", name)
			}
		}
	case "log":
		if logFuncs[name] {
			p.Reportf(call.Pos(), "log.%s in a runtime package; emit an obs event or return an error", name)
		}
	}
}

// isStdStream reports whether the expression is os.Stdout or os.Stderr.
func isStdStream(p *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "os"
}
