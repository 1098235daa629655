package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeObj resolves the object a call expression invokes (function,
// method or builtin), or nil when unresolvable (type errors, dynamic
// calls through function values are returned as their variable).
func calleeObj(pkg *Package, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pkg.Info.Uses[fn]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[fn.Sel]
	}
	return nil
}

// exprType returns the type the checker recorded for e, or nil.
func exprType(pkg *Package, e ast.Expr) types.Type {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

// objPkgPath returns the import path of the object's package ("" for
// builtins and universe-scope objects).
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// pkgPathIs reports whether an import path names the given package:
// exactly, or as the final path element (so the check recognizes both
// "relaxreplay/internal/replaylog" and a testdata fixture's bare
// "replaylog").
func pkgPathIs(path, name string) bool {
	return path == name || strings.HasSuffix(path, "/"+name)
}

// lastResultIsError reports whether the call's type is, or ends in, an
// error.
func lastResultIsError(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// rootIdent returns the base identifier of an lvalue-ish expression
// (x, x.f, x[i], *x all root at x), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// eachFuncBody visits the body of every declared function and method
// in the package (function literals are visited as part of their
// enclosing declaration's body).
func eachFuncBody(pkg *Package, fn func(body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd.Body)
			}
		}
	}
}

// fileHasDirective reports whether any comment in the file contains
// the given directive token (e.g. "rrlint:deterministic").
func fileHasDirective(f *ast.File, directive string) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, directive) {
				return true
			}
		}
	}
	return false
}
