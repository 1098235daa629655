package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the cross-function analysis engine the concurrency
// checks (lockorder, blockinglock, goroleak) share. It is
// built once per loaded Program (Program.Facts) and reused by every
// check, so a full rrlint run pays for parsing, type-checking and the
// call-graph fixpoint exactly once.
//
// The engine works in three passes:
//
//  1. Node discovery: every declared function/method body and every
//     function literal becomes a funcNode.
//  2. Body walk: one source-order traversal per node maintaining an
//     approximate held-lock multiset (Lock adds, Unlock removes,
//     `defer Unlock` holds to function end), recording direct lock
//     acquisitions (with the held set at that instant — the direct
//     lock-order edges), direct blocking operations, static call
//     sites (with their held snapshot) and `go` statements.
//  3. Fixpoint: per-function summaries — the set of locks transitively
//     acquired and the set of blocking operations transitively
//     reachable — propagate over the call graph until stable. `go`
//     statements are NOT call edges: work on another goroutine neither
//     blocks the launcher nor orders against its held locks.
//
// Soundness caveats (deliberate; DESIGN.md §18):
//   - The held-set walk is source-order linear, not path-sensitive: an
//     Unlock inside one branch releases for everything after it, so
//     the engine under-reports rather than false-positives on
//     branchy lock/unlock shapes.
//   - Dynamic calls (function values, interface methods without a
//     loaded body) are opaque; only the blocking primitives the walk
//     classifies structurally (net.Conn I/O, os.File.Sync, channel
//     ops, time.Sleep, WaitGroup/Cond Wait) are seen through them.
//   - Lock identity is (owning named type, field path) or the package
//     variable — all instances of one field are one node, so locking
//     two instances of the same type in a fixed address order is
//     reported as a self-cycle and needs an //rrlint:allow.

// Facts is the shared cross-function analysis state.
type Facts struct {
	prog  *Program
	nodes []*funcNode
	byObj map[*types.Func]*funcNode
	byLit map[*ast.FuncLit]*funcNode
}

// Facts returns the call-graph facts, building them on first use. The
// result is cached on the Program so every check shares one build.
func (p *Program) Facts() *Facts {
	if p.facts == nil {
		p.factBuilds++
		p.facts = buildFacts(p)
	}
	return p.facts
}

// lockUse is one identified mutex: key is the identity (shared across
// functions for struct fields and package vars), disp the short name
// diagnostics print.
type lockUse struct {
	key  string
	disp string
	pos  token.Pos
}

// blockSite is one direct blocking operation, with the held-lock
// snapshot at that point (empty when no lock was held).
type blockSite struct {
	kind string
	pos  token.Pos
	held []lockUse
}

// blockOp is a summary entry: a blocking operation reachable from a
// function, with the callee chain that reaches it ("" when direct).
type blockOp struct {
	kind string
	via  string
}

// callSite is one static call to an in-program function, with the
// held-lock snapshot at the call.
type callSite struct {
	callee *funcNode
	pos    token.Pos
	held   []lockUse
}

// goSite is one `go` statement (the goroleak surface).
type goSite struct {
	call *ast.CallExpr
	pos  token.Pos
}

// lockEdge is one observed acquisition order: to was acquired while
// from was held. via names the call chain for cross-function edges.
type lockEdge struct {
	from, to lockUse
	pos      token.Pos
	pkg      *Package
	via      string
}

// funcNode is one function body in the call graph.
type funcNode struct {
	pkg  *Package
	name string
	obj  *types.Func  // nil for function literals
	lit  *ast.FuncLit // nil for declared functions
	body *ast.BlockStmt

	acquires  map[string]lockUse
	blocks    []blockSite
	calls     []callSite
	gos       []goSite
	lockEdges []lockEdge

	sumAcquires map[string]lockUse
	sumBlocks   map[string]blockOp
}

func buildFacts(prog *Program) *Facts {
	f := &Facts{
		prog:  prog,
		byObj: make(map[*types.Func]*funcNode),
		byLit: make(map[*ast.FuncLit]*funcNode),
	}
	// Pass 1: discover every function body.
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				n := &funcNode{pkg: pkg, obj: obj, body: fd.Body, name: declName(fd)}
				f.nodes = append(f.nodes, n)
				if obj != nil {
					f.byObj[obj] = n
				}
			}
			// Function literals are their own nodes: their body runs on
			// whatever goroutine (or deferred frame) invokes it, so it
			// gets a fresh held set.
			parent := ""
			ast.Inspect(file, func(x ast.Node) bool {
				if fd, ok := x.(*ast.FuncDecl); ok {
					parent = declName(fd)
				}
				if lit, ok := x.(*ast.FuncLit); ok {
					pos := prog.Fset.Position(lit.Pos())
					n := &funcNode{pkg: pkg, lit: lit, body: lit.Body,
						name: fmt.Sprintf("func literal in %s (line %d)", parent, pos.Line)}
					f.nodes = append(f.nodes, n)
					f.byLit[lit] = n
				}
				return true
			})
		}
	}
	// Pass 2: walk each body.
	for _, n := range f.nodes {
		n.acquires = make(map[string]lockUse)
		w := &bodyWalker{facts: f, node: n, held: newHeldSet()}
		w.walk(n.body)
	}
	// Pass 3: fixpoint over the call graph. Summaries only grow and
	// are bounded by the program's lock and primitive vocabulary, so
	// iteration terminates; the loop bound is a defensive backstop.
	for _, n := range f.nodes {
		n.sumAcquires = make(map[string]lockUse, len(n.acquires))
		for k, u := range n.acquires {
			n.sumAcquires[k] = u
		}
		n.sumBlocks = make(map[string]blockOp)
		for _, bs := range n.blocks {
			if _, ok := n.sumBlocks[bs.kind]; !ok {
				n.sumBlocks[bs.kind] = blockOp{kind: bs.kind}
			}
		}
	}
	for round := 0; round <= len(f.nodes); round++ {
		changed := false
		for _, n := range f.nodes {
			for _, cs := range n.calls {
				for k, u := range cs.callee.sumAcquires {
					if _, ok := n.sumAcquires[k]; !ok {
						n.sumAcquires[k] = u
						changed = true
					}
				}
				for k, op := range cs.callee.sumBlocks {
					if _, ok := n.sumBlocks[k]; !ok {
						via := cs.callee.name
						if op.via != "" {
							via += " -> " + op.via
						}
						n.sumBlocks[k] = blockOp{kind: k, via: via}
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	return f
}

// declName renders a function declaration's display name,
// e.g. "flushIdle" or "(*Server).flushIdle".
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var b strings.Builder
	b.WriteString("(")
	writeTypeExpr(&b, fd.Recv.List[0].Type)
	b.WriteString(").")
	b.WriteString(fd.Name.Name)
	return b.String()
}

func writeTypeExpr(b *strings.Builder, e ast.Expr) {
	switch v := e.(type) {
	case *ast.Ident:
		b.WriteString(v.Name)
	case *ast.StarExpr:
		b.WriteString("*")
		writeTypeExpr(b, v.X)
	case *ast.IndexExpr:
		writeTypeExpr(b, v.X)
	case *ast.IndexListExpr:
		writeTypeExpr(b, v.X)
	default:
		b.WriteString("?")
	}
}

// heldSet is the approximate set of locks held at a program point,
// as a multiset preserving first-acquisition order.
type heldSet struct {
	order []lockUse
	count map[string]int
}

func newHeldSet() *heldSet {
	return &heldSet{count: make(map[string]int)}
}

func (h *heldSet) add(u lockUse) {
	if h.count[u.key] == 0 {
		h.order = append(h.order, u)
	}
	h.count[u.key]++
}

func (h *heldSet) remove(key string) {
	if h.count[key] == 0 {
		return
	}
	h.count[key]--
	if h.count[key] > 0 {
		return
	}
	for i, u := range h.order {
		if u.key == key {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
}

func (h *heldSet) snapshot() []lockUse {
	if len(h.order) == 0 {
		return nil
	}
	cp := make([]lockUse, len(h.order))
	copy(cp, h.order)
	return cp
}

// bodyWalker performs one node's source-order traversal.
type bodyWalker struct {
	facts *Facts
	node  *funcNode
	held  *heldSet
}

func (w *bodyWalker) walk(root ast.Node) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			// Own node, fresh held set; not part of this walk.
			return false
		case *ast.GoStmt:
			w.node.gos = append(w.node.gos, goSite{call: v.Call, pos: v.Pos()})
			// Arguments evaluate on the launching goroutine.
			for _, a := range v.Call.Args {
				w.walk(a)
			}
			return false
		case *ast.DeferStmt:
			w.call(v.Call, true)
			for _, a := range v.Call.Args {
				w.walk(a)
			}
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range v.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				w.block(v.Pos(), "select")
			}
			for _, c := range v.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				for _, s := range cc.Body {
					w.walk(s)
				}
			}
			return false
		case *ast.SendStmt:
			w.block(v.Arrow, "channel send")
			w.walk(v.Chan)
			w.walk(v.Value)
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				w.block(v.Pos(), "channel receive")
			}
		case *ast.RangeStmt:
			if t := exprType(w.node.pkg, v.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					w.block(v.X.Pos(), "range over channel")
				}
			}
		case *ast.CallExpr:
			if w.call(v, false) {
				return false
			}
		}
		return true
	})
}

// block records one direct blocking operation with the current held
// snapshot.
func (w *bodyWalker) block(pos token.Pos, kind string) {
	w.node.blocks = append(w.node.blocks, blockSite{kind: kind, pos: pos, held: w.held.snapshot()})
}

// call classifies one call expression: mutex acquire/release, blocking
// primitive, or a static in-program call edge. Returns true when the
// traversal should not descend further (the call was fully handled).
func (w *bodyWalker) call(call *ast.CallExpr, isDefer bool) bool {
	pkg := w.node.pkg
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked (or deferred) literal: a call edge. The
		// deferred form runs at return, approximated as running here —
		// with `defer mu.Unlock()` holding to function end this
		// over-approximates the held set, never under.
		if callee := w.facts.byLit[lit]; callee != nil {
			w.node.calls = append(w.node.calls, callSite{callee: callee, pos: call.Pos(), held: w.held.snapshot()})
		}
		return false // still walk the literal's arguments and body node boundary
	}
	obj := calleeObj(pkg, call)
	if obj == nil {
		return false
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if tn, mn := syncMethodOf(obj); tn != "" && sel != nil {
		switch {
		case (tn == "Mutex" || tn == "RWMutex") && (mn == "Lock" || mn == "RLock"):
			if u := w.lockUseOf(sel, call.Pos()); u.key != "" {
				for _, h := range w.held.snapshot() {
					w.node.lockEdges = append(w.node.lockEdges,
						lockEdge{from: h, to: u, pos: call.Pos(), pkg: pkg})
				}
				if _, ok := w.node.acquires[u.key]; !ok {
					w.node.acquires[u.key] = u
				}
				w.held.add(u)
			}
			return true
		case (tn == "Mutex" || tn == "RWMutex") && (mn == "Unlock" || mn == "RUnlock"):
			if isDefer {
				return true // released only at return: held for the rest of the walk
			}
			if u := w.lockUseOf(sel, call.Pos()); u.key != "" {
				w.held.remove(u.key)
			}
			return true
		case (tn == "WaitGroup" || tn == "Cond") && mn == "Wait":
			w.block(call.Pos(), "sync."+tn+".Wait")
			return true
		}
	}
	switch {
	case objPkgPath(obj) == "time" && obj.Name() == "Sleep":
		w.block(call.Pos(), "time.Sleep")
		return true
	case objPkgPath(obj) == "os" && obj.Name() == "Sync" && isMethod(obj):
		w.block(call.Pos(), "os.File.Sync")
		return true
	case (obj.Name() == "Read" || obj.Name() == "Write") && isMethod(obj) && isConnShaped(recvType(obj)):
		w.block(call.Pos(), "net.Conn "+strings.ToLower(obj.Name()))
		return false // still visit arguments
	}
	if fn, ok := obj.(*types.Func); ok {
		if callee := w.facts.byObj[fn]; callee != nil {
			w.node.calls = append(w.node.calls, callSite{callee: callee, pos: call.Pos(), held: w.held.snapshot()})
		}
	}
	return false
}

// syncMethodOf returns the sync-package receiver type name and method
// name when obj is a method of a sync type ("", "" otherwise).
func syncMethodOf(obj types.Object) (string, string) {
	fn, ok := obj.(*types.Func)
	if !ok || objPkgPath(obj) != "sync" {
		return "", ""
	}
	rt := recvType(obj)
	if rt == nil {
		return "", ""
	}
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return "", ""
	}
	return named.Obj().Name(), fn.Name()
}

// lockUseOf derives the lock identity from the receiver expression of
// a Lock/Unlock call. Struct fields key on (owning named type, field
// path) — every instance of Server.mu is one lock-order node; package
// vars key on (package path, name); locals key on the declaring
// position (unique, never shared cross-function). An unresolvable
// receiver yields key "".
func (w *bodyWalker) lockUseOf(sel *ast.SelectorExpr, pos token.Pos) lockUse {
	pkg := w.node.pkg
	recv := ast.Unparen(sel.X)

	// Embedded mutex: `s.Lock()` where the struct embeds sync.Mutex.
	// The selection's field path names the embedded route.
	if selInfo, ok := pkg.Info.Selections[sel]; ok && len(selInfo.Index()) > 1 {
		if named := namedOf(selInfo.Recv()); named != nil {
			path := fieldPath(selInfo.Recv(), selInfo.Index()[:len(selInfo.Index())-1])
			return lockUse{
				key:  typeKey(named) + "." + path,
				disp: named.Obj().Name() + "." + path,
				pos:  pos,
			}
		}
	}

	switch v := recv.(type) {
	case *ast.Ident:
		obj := pkg.Info.ObjectOf(v)
		if obj == nil {
			return lockUse{}
		}
		if vr, ok := obj.(*types.Var); ok && vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope() {
			return lockUse{key: vr.Pkg().Path() + "." + vr.Name(), disp: vr.Name(), pos: pos}
		}
		// Local (or parameter): keyed by declaring position.
		return lockUse{
			key:  fmt.Sprintf("local:%d:%s", obj.Pos(), obj.Name()),
			disp: obj.Name(),
			pos:  pos,
		}
	case *ast.SelectorExpr:
		// s.mu, a.b.mu, shards[i].mu: identity is (named type of the
		// owner expression, field name).
		if t := exprType(pkg, v.X); t != nil {
			if named := namedOf(t); named != nil {
				return lockUse{
					key:  typeKey(named) + "." + v.Sel.Name,
					disp: named.Obj().Name() + "." + v.Sel.Name,
					pos:  pos,
				}
			}
		}
	}
	return lockUse{}
}

// namedOf unwraps pointers to the named type, nil when t has none.
func namedOf(t types.Type) *types.Named {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v
		default:
			return nil
		}
	}
}

func typeKey(n *types.Named) string {
	if n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path() + "." + n.Obj().Name()
	}
	return n.Obj().Name()
}

// fieldPath renders the embedded-field route for a selection index
// prefix (all but the final method element).
func fieldPath(recv types.Type, index []int) string {
	var parts []string
	t := recv
	for _, i := range index {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			break
		}
		f := st.Field(i)
		parts = append(parts, f.Name())
		t = f.Type()
	}
	return strings.Join(parts, ".")
}

// lockOrderEdges assembles the global acquisition-order graph: the
// direct edges each body walk recorded, plus cross-function edges —
// a call made while holding H to a function whose summary acquires A
// orders H before A.
func (f *Facts) lockOrderEdges() []lockEdge {
	var edges []lockEdge
	for _, n := range f.nodes {
		edges = append(edges, n.lockEdges...)
		for _, cs := range n.calls {
			if len(cs.held) == 0 {
				continue
			}
			for _, a := range sortedUses(cs.callee.sumAcquires) {
				for _, h := range cs.held {
					edges = append(edges, lockEdge{
						from: h, to: a, pos: cs.pos, pkg: n.pkg,
						via: "via call to " + cs.callee.name,
					})
				}
			}
		}
	}
	return edges
}

func sortedUses(m map[string]lockUse) []lockUse {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]lockUse, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

func sortedBlocks(m map[string]blockOp) []blockOp {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]blockOp, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// lockList renders a held snapshot for diagnostics.
func lockList(held []lockUse) string {
	names := make([]string, len(held))
	for i, u := range held {
		names[i] = u.disp
	}
	return strings.Join(names, ", ")
}
