package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deadlinePkgs are the live-runtime packages whose socket I/O must be
// deadline-bounded: the TCP message mesh and the swapping runtime's control
// and checkpoint connections. A read or write with no deadline turns one
// dead peer into a hung mesh. The match is exact, deliberately excluding
// repro/internal/mpi/fault: the chaos layer does no socket I/O of its own
// (its delay rules sleep inside the transport wrapper, which is not a
// conn read/write), so it must not inherit the mpi package's obligations.
var deadlinePkgs = map[string]bool{
	"repro/internal/mpi":    true,
	"repro/internal/swaprt": true,
	// The manager store does file I/O only today, but it sits under the
	// manager wire protocol: any socket it ever grows (e.g. lease
	// replication) inherits the deadline obligation from day one.
	"repro/internal/swaprt/mgrstore": true,
}

// DeadlineIO requires a SetDeadline/SetReadDeadline/SetWriteDeadline call
// earlier in the same function than any net.Conn read or write — including
// reads/writes performed through a gob/json encoder or decoder constructed
// from the connection, and io.ReadFull/io.Copy on the connection.
//
// The check is per function and flow-insensitive (any deadline call earlier
// in source order satisfies any later I/O), which matches how the transport
// code is written: dial/accept, arm the deadline, then talk.
var DeadlineIO = &Analyzer{
	Name:    "deadlineio",
	Doc:     "require conn deadlines before net.Conn reads/writes in the live transport packages",
	Applies: func(pkgPath string) bool { return deadlinePkgs[pkgPath] },
	Run:     runDeadlineIO,
}

func runDeadlineIO(p *Pass) {
	for _, file := range p.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p.checkFuncDeadlines(fd.Body)
		}
	}
}

// connIOPoint describes one statically visible conn read/write.
type connIOPoint struct {
	pos  token.Pos
	desc string
}

func (p *Pass) checkFuncDeadlines(body *ast.BlockStmt) {
	// First pass: positions of deadline arms, and the set of local
	// encoder/decoder objects constructed from a net.Conn.
	var deadlinePos []token.Pos
	connStreams := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := p.methodOf(n); fn != nil && isNetConn(p.recvOf(n)) {
				switch fn.Name() {
				case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
					deadlinePos = append(deadlinePos, n.Pos())
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					if call, ok := n.Rhs[0].(*ast.CallExpr); ok && p.isConnStreamCtor(call) {
						if obj := p.objOf(id); obj != nil {
							connStreams[obj] = true
						}
					}
				}
			}
		}
		return true
	})

	armedBefore := func(pos token.Pos) bool {
		for _, dp := range deadlinePos {
			if dp < pos {
				return true
			}
		}
		return false
	}

	// Second pass: every conn I/O point must be preceded by a deadline.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		io, ok := p.connIO(call, connStreams)
		if !ok {
			return true
		}
		if !armedBefore(io.pos) {
			p.Reportf(io.pos, "%s with no deadline set in this function; arm SetDeadline/SetReadDeadline/SetWriteDeadline first so a dead peer cannot hang the mesh", io.desc)
		}
		return true
	})
}

// isConnStreamCtor reports whether the call constructs a gob/json
// encoder/decoder or bufio reader/writer directly from a net.Conn value.
func (p *Pass) isConnStreamCtor(call *ast.CallExpr) bool {
	pkg, name, ok := p.pkgFunc(call)
	if !ok {
		return false
	}
	switch pkg {
	case "encoding/gob", "encoding/json":
		if name != "NewEncoder" && name != "NewDecoder" {
			return false
		}
	case "bufio":
		if !strings.HasPrefix(name, "NewReader") && !strings.HasPrefix(name, "NewWriter") {
			return false
		}
	case "repro/internal/mpi/wire":
		// The transport's framing layer: wire.NewDecoder(conn) reads the
		// socket, so its Decode calls carry the same deadline obligation
		// as a gob decoder's. (The wire Encoder serializes to memory — a
		// flusher writes the conn — so only the decoder is conn-backed.)
		if name != "NewDecoder" {
			return false
		}
	default:
		return false
	}
	return len(call.Args) >= 1 && isNetConn(p.Info.TypeOf(call.Args[0]))
}

// connIO classifies a call as a connection read/write: a direct
// conn.Read/conn.Write or a vectored net.Buffers.WriteTo(conn), an
// Encode/Decode/Flush on a conn-backed stream
// (either a tracked local or a chained `gob.NewDecoder(conn).Decode(...)`),
// or io.ReadFull/io.Copy/io.ReadAll with a conn argument.
func (p *Pass) connIO(call *ast.CallExpr, connStreams map[types.Object]bool) (connIOPoint, bool) {
	if fn := p.methodOf(call); fn != nil {
		if isNetConn(p.recvOf(call)) && (fn.Name() == "Read" || fn.Name() == "Write") {
			return connIOPoint{call.Pos(), "net.Conn." + fn.Name()}, true
		}
		if p.isVectoredConnWrite(call) {
			return connIOPoint{call.Pos(), "net.Buffers.WriteTo on a net.Conn"}, true
		}
		if fn.Name() == "Encode" || fn.Name() == "Decode" || fn.Name() == "Flush" {
			sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			switch x := ast.Unparen(sel.X).(type) {
			case *ast.Ident:
				if obj := p.objOf(x); obj != nil && connStreams[obj] {
					return connIOPoint{call.Pos(), fn.Name() + " on a conn-backed stream"}, true
				}
			case *ast.CallExpr:
				if p.isConnStreamCtor(x) {
					return connIOPoint{call.Pos(), fn.Name() + " on a conn-backed stream"}, true
				}
			}
		}
	}
	if pkg, name, ok := p.pkgFunc(call); ok && pkg == "io" {
		switch name {
		case "ReadFull", "Copy", "CopyN", "ReadAll":
			for _, arg := range call.Args {
				if isNetConn(p.Info.TypeOf(arg)) {
					return connIOPoint{call.Pos(), "io." + name + " on a net.Conn"}, true
				}
			}
		}
	}
	return connIOPoint{}, false
}

// objOf resolves an identifier to its object (use or def).
func (p *Pass) objOf(id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}
