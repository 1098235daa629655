// rrlint statically proves the simulator's determinism and
// concurrency invariants: no wall clocks or global RNGs in the
// simulation packages, no map-iteration-ordered output, no discarded
// errors on the fault-injected log write path, a closed fault-point
// vocabulary, no function-style sync/atomic calls (atomicmix) — and,
// through a cross-function call-graph engine, no mutex-order cycles
// (lockorder), no blocking I/O reachable under a lock (blockinglock)
// and no unsupervised goroutines (goroleak). It is stdlib-only
// (go/ast + go/types) and gates CI next to go vet, which is the one
// gate against copied locks and atomics (-copylocks).
//
//	rrlint [-checks detrand,maporder,...] [packages]
//
// Packages default to ./... . Findings print one per line in go vet's
// file:line:col form. Exit status: 0 clean, 1 findings, 2 usage or
// load failure. Suppress a finding with an `//rrlint:allow <check>`
// comment trailing its line or on the line directly above; for the
// cross-function checks the comment goes at the reported site (the
// frame holding the lock, the go statement), not inside a callee.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"relaxreplay/internal/lint"
)

func main() {
	checks := flag.String("checks", "", "comma-separated checks to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rrlint [-checks c1,c2] [packages]\n\nchecks:\n")
		for _, c := range lint.Checks() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", c.Name, c.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrlint: %v\n", err)
		os.Exit(2)
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
	// matching go vet's output shape for editors and CI logs.
	wd, _ := os.Getwd()
	for _, d := range diags {
		if wd != "" {
			if rel, err := filepath.Rel(wd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = rel
			}
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rrlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
