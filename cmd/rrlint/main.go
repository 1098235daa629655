// rrlint statically proves the simulator's determinism, hot-path and
// concurrency invariants: no wall clocks or global RNGs in the
// simulation packages, no map-iteration-ordered output, no discarded
// errors on the fault-injected log write path, no allocation in
// //rrlint:hotpath functions, a closed fault-point vocabulary — and,
// through a cross-function call-graph engine, no mutex-order cycles
// (lockorder), no blocking I/O reachable under a lock (blockinglock),
// no unsupervised goroutines (goroleak), and no field mixing
// sync/atomic with plain access (atomicmix). It is stdlib-only
// (go/ast + go/types) and gates CI next to go vet, which is the one
// gate against copied locks and atomics (-copylocks).
//
//	rrlint [-checks detrand,maporder,...] [-json] [-sarif] [-list] [packages]
//
// Packages default to ./... . Exit status: 0 clean, 1 findings,
// 2 usage or load failure. -sarif emits a SARIF 2.1.0 log for GitHub
// code scanning (findings still exit 1, so CI fails while the
// artifact is written). Suppress a finding with an
// `//rrlint:allow <check>` comment on (or directly above) its line;
// for the cross-function checks the comment goes at the reported
// site (the frame holding the lock, the go statement), not inside a
// callee.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"relaxreplay/internal/lint"
)

func main() {
	checks := flag.String("checks", "", "comma-separated checks to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	sarifOut := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 (GitHub code scanning)")
	list := flag.Bool("list", false, "list registered checks and exit")
	typeErrs := flag.Bool("typecheck", false, "also report type-check errors (default: syntax-tolerant)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rrlint [-checks c1,c2] [-json] [-sarif] [-list] [packages]\n\nchecks:\n")
		for _, c := range lint.Checks() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", c.Name, c.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, c := range lint.Checks() {
			fmt.Printf("%-14s %s\n", c.Name, c.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrlint: %v\n", err)
		os.Exit(2)
	}
	if *typeErrs {
		bad := false
		for _, pkg := range prog.Pkgs {
			for _, e := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "rrlint: typecheck: %v\n", e)
				bad = true
			}
		}
		if bad {
			os.Exit(2)
		}
	}

	var names []string
	if *checks != "" {
		names = strings.Split(*checks, ",")
	}
	diags, err := lint.Run(prog, names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrlint: %v\n", err)
		os.Exit(2)
	}

	// Positions print relative to the working directory when possible,
	// matching go vet's output shape for editors and CI annotations.
	wd, _ := os.Getwd()
	for i := range diags {
		if wd != "" {
			if rel, err := filepath.Rel(wd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
				diags[i].File = rel
			}
		}
	}

	if *sarifOut {
		out, err := lint.SARIF(diags)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rrlint: %v\n", err)
			os.Exit(2)
		}
		os.Stdout.Write(out)
		fmt.Println()
	} else if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Findings []lint.Diagnostic `json:"findings"`
		}{Findings: diags}); err != nil {
			fmt.Fprintf(os.Stderr, "rrlint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rrlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
