package lint

import (
	"go/ast"
	"go/types"
)

// errcheck-io: errors on the log write path must not be discarded.
// The replaylog encoder and the buffered writers under it are exactly
// where faultinject aims its write faults (shortwrite, flush.crash),
// so a dropped error there turns an injected-and-detected fault into
// a silently truncated log — the one failure mode the robustness PR
// forbids. Flagged: a call whose error result is discarded (expression
// statement, or assigned to _) when the callee is (a) any function of
// package replaylog, or of package frame (the frame writer under it),
// returning an error, (b) any Flush method returning
// an error (bufio.Writer and friends), or (c) Close / SetDeadline /
// SetReadDeadline / SetWriteDeadline on a net.Conn-shaped receiver.
// A dropped Close on a socket hides the write error TCP only surfaces
// at close time; a dropped SetDeadline means the daemon's frame
// timeouts silently never arm. The receiver must carry net.Conn's
// full method set (including LocalAddr/RemoteAddr), so *os.File —
// which also has Close and the deadline setters — stays unflagged.

var errcheckIOCheck = &Check{
	Name: "errcheck-io",
	Doc:  "no discarded errors from replaylog encode/decode, frame writes or Flush on the log write path",
	Run: func(pass *Pass) {
		for _, pkg := range pass.Prog.Pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch st := n.(type) {
					case *ast.ExprStmt:
						if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
							if why := ioErrCall(pkg, call); why != "" {
								pass.Report(pkg, call, "%s error discarded (fault injection targets this path; handle or propagate it)", why)
							}
						}
					case *ast.AssignStmt:
						checkAssignDiscard(pass, pkg, st)
					case *ast.DeferStmt:
						if why := ioErrCall(pkg, st.Call); why != "" {
							pass.Report(pkg, st.Call, "%s error discarded by defer (wrap in a closure that records it)", why)
						}
					case *ast.GoStmt:
						if why := ioErrCall(pkg, st.Call); why != "" {
							pass.Report(pkg, st.Call, "%s error discarded by go statement", why)
						}
					}
					return true
				})
			}
		}
	},
}

// ioErrCall reports why a call is on the checked IO surface ("" when
// it is not): a replaylog or frame function, a Flush method, or a
// conn method, returning error.
func ioErrCall(pkg *Package, call *ast.CallExpr) string {
	obj := calleeObj(pkg, call)
	if obj == nil || !lastResultIsError(pkg, call) {
		return ""
	}
	for _, pkgName := range []string{"replaylog", "frame"} {
		if pkgPathIs(objPkgPath(obj), pkgName) {
			return pkgName + "." + obj.Name()
		}
	}
	if obj.Name() == "Flush" && isMethod(obj) {
		return recvTypeName(obj) + ".Flush"
	}
	if connErrMethods[obj.Name()] && isMethod(obj) && isConnShaped(recvType(obj)) {
		return recvTypeName(obj) + "." + obj.Name()
	}
	return ""
}

// connErrMethods are the error-returning net.Conn methods whose
// dropped errors the check flags. Read/Write are excluded: their
// errors flow through io plumbing that other code already checks.
var connErrMethods = map[string]bool{
	"Close":            true,
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

// connShape is net.Conn's full method set. Requiring all of it —
// LocalAddr and RemoteAddr included — is what distinguishes a socket
// from *os.File, which shares Close and the three deadline setters.
var connShape = []string{
	"Read", "Write", "Close", "LocalAddr", "RemoteAddr",
	"SetDeadline", "SetReadDeadline", "SetWriteDeadline",
}

// recvType returns a method's receiver type, nil for non-methods.
func recvType(obj types.Object) types.Type {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// isConnShaped reports whether t's method set covers all of net.Conn.
// The check is structural (names only, via the pointer method set for
// concrete types), so it catches net.Conn itself, *net.TCPConn, and
// this repo's fault-injecting wrappers without the lint tool importing
// package net.
func isConnShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	ms := types.NewMethodSet(t)
	if _, isIface := t.Underlying().(*types.Interface); !isIface {
		if _, isPtr := t.(*types.Pointer); !isPtr {
			ms = types.NewMethodSet(types.NewPointer(t))
		}
	}
	for _, name := range connShape {
		if ms.Lookup(nil, name) == nil {
			return false
		}
	}
	return true
}

// checkAssignDiscard flags `_ = replaylog.Encode(...)` and
// multi-result forms whose error position lands on a blank.
func checkAssignDiscard(pass *Pass, pkg *Package, st *ast.AssignStmt) {
	// Only the single-call RHS forms can discard a call's error into a
	// blank: `_ = f()` or `a, _ := g()`.
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	why := ioErrCall(pkg, call)
	if why == "" {
		return
	}
	// The error is the last result, so it binds to the last LHS.
	last := st.Lhs[len(st.Lhs)-1]
	if id, ok := ast.Unparen(last).(*ast.Ident); ok && id.Name == "_" {
		pass.Report(pkg, st, "%s error assigned to _ (fault injection targets this path; handle or propagate it)", why)
	}
}
