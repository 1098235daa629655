// Package lint is rrlint's analyzer framework: a stdlib-only static
// analysis suite (go/ast + go/parser + go/types, no external deps)
// that proves the simulator's determinism and hot-path invariants at
// build time instead of discovering violations at replay time.
//
// RelaxReplay's contract is bit-exact recording and byte-identical
// replay (paper §3, §5). The regression tests catch a nondeterminism
// bug only after someone writes one AND a test happens to exercise it;
// rrlint rejects the usual sources mechanically, the way QuickRec- and
// Castor-style systems treat wall clocks and unseeded RNGs as
// build-time errors:
//
//   - detrand: no wall-clock or global-RNG calls inside the
//     deterministic simulation packages.
//   - maporder: no map iteration whose body feeds ordered output
//     (append without a later sort, writer/encoder/table calls).
//   - errcheck-io: no discarded errors from replaylog encode/decode
//     or Flush on the (fault-injectable) log write path.
//   - hotpath-alloc: functions annotated //rrlint:hotpath must stay
//     free of fmt calls, closures and composite literals.
//   - faultpoint: every fault-point-shaped string literal matches a
//     point registered in internal/faultinject, and Points() lists
//     every declared point.
//
// On top of the per-function checks sits a type-aware cross-function
// engine (callgraph.go): a static call graph over the type-checked
// program with per-function summaries — locks acquired, blocking
// operations performed, goroutines launched — propagated to a
// fixpoint. Four concurrency checks run on it:
//
//   - lockorder: the observed mutex-acquisition order (across all
//     call paths) must be cycle-free.
//   - blockinglock: no blocking operation (conn I/O, fsync, channel
//     op, sleep) reachable while a mutex is held; reported in the
//     frame that holds the lock.
//   - goroleak: every `go` statement is supervised by a context,
//     done-channel, or WaitGroup visible at the launch site.
//   - atomicmix: no struct field is accessed both through sync/atomic
//     and by plain load/store anywhere in the program.
//
// Findings are suppressed per line with a `//rrlint:allow <check>`
// comment (on the offending line or the line above), so intentional
// exceptions are visible and grep-able. For the cross-function checks
// the comment must sit at the REPORTED site — the frame holding the
// lock, the go statement, the plain field access — not inside a
// callee, so the suppression documents the frame that owns the
// tradeoff.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for editors and CI logs.
type Diagnostic struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Check   string         `json:"check"`
	Message string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Check is one analysis. Run inspects the whole program (checks that
// need cross-package state, like faultpoint, see everything) and
// reports findings through pass.Report, which applies suppression.
type Check struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

// Checks returns every registered check in stable order.
func Checks() []*Check {
	return []*Check{
		detrandCheck,
		maporderCheck,
		errcheckIOCheck,
		hotpathCheck,
		faultpointCheck,
		lockorderCheck,
		blockinglockCheck,
		goroleakCheck,
		atomicmixCheck,
	}
}

// CheckNames returns the registered check names in stable order.
func CheckNames() []string {
	var names []string
	for _, c := range Checks() {
		names = append(names, c.Name)
	}
	return names
}

// Pass carries one check's view of the program plus the reporting
// sink. Checks iterate prog.Pkgs themselves.
type Pass struct {
	Check *Check
	Prog  *Program

	diags   []Diagnostic
	allowed func(pos token.Position, check string) bool
}

// Report records a finding at the given node unless an
// `//rrlint:allow` comment suppresses it.
func (p *Pass) Report(pkg *Package, node ast.Node, format string, args ...any) {
	p.ReportPos(pkg, node.Pos(), format, args...)
}

// ReportPos is Report for checks that carry raw positions (the
// cross-function checks report at sites recorded during the shared
// call-graph walk, not at a node in hand).
func (p *Pass) ReportPos(pkg *Package, tpos token.Pos, format string, args ...any) {
	pos := pkg.Prog.Fset.Position(tpos)
	if p.allowed(pos, p.Check.Name) {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:     pos,
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		Check:   p.Check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes the named checks (all registered checks when names is
// empty) over the loaded program and returns the findings sorted by
// position.
func Run(prog *Program, names []string) ([]Diagnostic, error) {
	enabled := make(map[string]bool)
	known := make(map[string]*Check)
	for _, c := range Checks() {
		known[c.Name] = c
	}
	if len(names) == 0 {
		for n := range known {
			enabled[n] = true
		}
	} else {
		for _, n := range names {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if known[n] == nil {
				return nil, fmt.Errorf("lint: unknown check %q (have: %s)",
					n, strings.Join(CheckNames(), ", "))
			}
			enabled[n] = true
		}
	}

	allow := buildAllowIndex(prog)
	var all []Diagnostic
	for _, c := range Checks() {
		if !enabled[c.Name] {
			continue
		}
		pass := &Pass{Check: c, Prog: prog, allowed: allow.allows}
		c.Run(pass)
		all = append(all, pass.diags...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return all, nil
}

// allowIndex maps file -> line -> set of suppressed check names. A
// comment on line N suppresses findings on line N (trailing comment)
// and line N+1 (comment-above style).
type allowIndex map[string]map[int]map[string]bool

func buildAllowIndex(prog *Program) allowIndex {
	idx := make(allowIndex)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					checks, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					lines := idx[pos.Filename]
					if lines == nil {
						lines = make(map[int]map[string]bool)
						idx[pos.Filename] = lines
					}
					for _, ln := range []int{pos.Line, pos.Line + 1} {
						if lines[ln] == nil {
							lines[ln] = make(map[string]bool)
						}
						for _, ch := range checks {
							lines[ln][ch] = true
						}
					}
				}
			}
		}
	}
	return idx
}

// parseAllow extracts the check list from an `//rrlint:allow a,b`
// comment. A bare `//rrlint:allow` suppresses every check ("*").
func parseAllow(text string) ([]string, bool) {
	const prefix = "//rrlint:allow"
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	// Strip a trailing explanation after " -- " or " # ".
	for _, sep := range []string{" -- ", " # "} {
		if i := strings.Index(rest, sep); i >= 0 {
			rest = strings.TrimSpace(rest[:i])
		}
	}
	if rest == "" {
		return []string{"*"}, true
	}
	var checks []string
	for _, c := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' }) {
		if c != "" {
			checks = append(checks, c)
		}
	}
	return checks, true
}

func (idx allowIndex) allows(pos token.Position, check string) bool {
	set := idx[pos.Filename][pos.Line]
	return set != nil && (set[check] || set["*"])
}
