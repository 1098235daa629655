package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// atomicmix: a struct field is either a plain field or an atomic —
// never both. Mixing `atomic.AddUint64(&s.n, 1)` with a plain `s.n`
// read elsewhere is a data race the memory model gives no meaning to,
// and on a relaxed-consistency machine (the very subject of this
// codebase) the plain load can legally observe a stale or torn value
// forever.
//
// The typed atomics (atomic.Uint64 et al.) make the mix
// inexpressible: their value is reachable only through methods, and
// `go vet -copylocks` rejects copying one. So the check bans the
// function-style API instead of tracing fields across the program:
// every call to a package-level sync/atomic Load*, Store*, Add*,
// Swap*, CompareAndSwap*, And* or Or* function is reported. Methods of
// the typed atomics are exempt.

var atomicmixCheck = &Check{
	Name: "atomicmix",
	Doc:  "no function-style sync/atomic calls: use the typed atomics, which cannot be read plainly",
	Run: func(pass *Pass) {
		for _, pkg := range pass.Prog.Pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(x ast.Node) bool {
					call, ok := x.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn, ok := calleeObj(pkg, call).(*types.Func)
					if !ok || objPkgPath(fn) != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil || !isAtomicFnName(fn.Name()) {
						return true
					}
					pass.Report(pkg, call,
						"call to atomic.%s: use a typed atomic (atomic.Uint64 et al.), which cannot be read plainly", fn.Name())
					return true
				})
			}
		}
	},
}

// isAtomicFnName matches the function-style sync/atomic API.
func isAtomicFnName(name string) bool {
	for _, p := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
