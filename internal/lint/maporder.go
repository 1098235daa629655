package lint

import (
	"go/ast"
	"go/types"
)

// maporder: iterating a Go map is deliberately randomized, so a
// `range m` whose body feeds anything ordered — an appended slice that
// is never sorted, an io.Writer, an encoder, a stats table row — is a
// silent-divergence bug: two identical runs print different bytes.
// This is exactly the class of bug PR 1's byte-identical serial-vs-
// parallel test exists to catch at runtime; maporder catches it at
// lint time.
//
// The blessed pattern stays legal: collect keys into a slice inside
// the loop, sort the slice after the loop, then iterate the sorted
// keys. An append inside a map range is only reported when no sort.*
// or slices.Sort* call over the same slice follows within the
// function.

// orderedSinkMethods are method names whose call inside a map range
// emits order-dependent output no later sort can repair.
var orderedSinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "AddRow": true,
}

// fmtPrinters are the fmt functions that emit output (Sprintf and
// friends produce values and are fine).
var fmtPrinters = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

var maporderCheck = &Check{
	Name: "maporder",
	Doc:  "no map iteration feeding ordered output (unsorted append, writer, encoder, table row)",
	Run: func(pass *Pass) {
		for _, pkg := range pass.Prog.Pkgs {
			eachFuncBody(pkg, func(body *ast.BlockStmt) {
				ast.Inspect(body, func(n ast.Node) bool {
					rng, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if !isMapType(pkg, rng.X) {
						return true
					}
					checkMapRange(pass, pkg, body, rng)
					return true
				})
			})
		}
	},
}

func isMapType(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange inspects one map-range body for ordered sinks and
// unsorted appends.
func checkMapRange(pass *Pass, pkg *Package, fn *ast.BlockStmt, rng *ast.RangeStmt) {
	// Slices appended to inside the loop, by root object. Reported
	// only if no later sort covers them.
	appended := make(map[types.Object]ast.Node)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.RangeStmt:
			// A nested range handles its own findings (and a nested
			// map range is independently visited by the outer walk).
			if v != rng && isMapType(pkg, v.X) {
				return false
			}
		case *ast.CallExpr:
			obj := calleeObj(pkg, v)
			switch {
			case obj == nil:
			case objPkgPath(obj) == "fmt" && fmtPrinters[obj.Name()]:
				pass.Report(pkg, v, "fmt.%s inside range over map (iteration order is random; emit after sorting)", obj.Name())
			case obj.Pkg() != nil && orderedSinkMethods[obj.Name()] && isMethod(obj):
				pass.Report(pkg, v, "%s.%s inside range over map (iteration order is random; emit after sorting)",
					recvTypeName(obj), obj.Name())
			case isBuiltinAppend(pkg, v):
				if tgt := appendTarget(v, n); tgt != nil {
					if id := rootIdent(tgt); id != nil {
						if o := pkg.Info.ObjectOf(id); o != nil {
							if _, exists := appended[o]; !exists {
								appended[o] = v
							}
						}
					}
				}
			}
		}
		return true
	})

	// Appends recorded above are fine when a sort over the same slice
	// follows the loop (the collect-sort-iterate idiom).
	if len(appended) == 0 {
		return
	}
	for obj, site := range appended {
		if !sortedAfter(pkg, fn, rng, obj) {
			pass.Report(pkg, site, "append to %q inside range over map with no later sort (iteration order is random)", obj.Name())
		}
	}
}

func isBuiltinAppend(pkg *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// appendTarget finds what an append call grows: the enclosing
// assignment's matching LHS when there is one, else the append's own
// first argument (append used for side effect into a field, etc.).
func appendTarget(call *ast.CallExpr, _ ast.Node) ast.Expr {
	if len(call.Args) > 0 {
		return call.Args[0]
	}
	return nil
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func recvTypeName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return "?"
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return "?"
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// sortedAfter reports whether a sort.* / slices.Sort* call mentioning
// obj appears in fn after the range statement.
func sortedAfter(pkg *Package, fn *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		callee := calleeObj(pkg, call)
		if callee == nil {
			return true
		}
		switch objPkgPath(callee) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			mentioned := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pkg.Info.ObjectOf(id) == obj {
					mentioned = true
					return false
				}
				return true
			})
			if mentioned {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
