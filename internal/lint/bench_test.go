package lint

import (
	"path/filepath"
	"testing"
	"time"
)

// repoRoot is the module root relative to this package.
var repoRoot = filepath.Join("..", "..")

// BenchmarkRepoLoad isolates the parse+type-check cost: the one-time
// work every rrlint invocation pays before any check runs.
func BenchmarkRepoLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Load(repoRoot, "./..."); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepoLint is the number CI cares about: a full run of every
// registered check over the whole repository, including the shared
// call-graph construction.
func BenchmarkRepoLint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prog, err := Load(repoRoot, "./...")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Run(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChecksOnly re-runs all checks against one loaded program,
// measuring the marginal cost of analysis over a warm load (the facts
// cache makes repeat runs nearly free).
func BenchmarkChecksOnly(b *testing.B) {
	prog, err := Load(repoRoot, "./...")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRepoLintBudget enforces the CI-friendliness claim: one cold
// full-repo run (load + every check) must finish inside a bound
// generous enough for slow shared runners yet tight enough to catch an
// accidental fixpoint blow-up or a per-check re-load regression.
func TestRepoLintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	const budget = 60 * time.Second
	start := time.Now()
	prog, err := Load(repoRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(prog, nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > budget {
		t.Errorf("full repo lint took %v, over the %v CI budget", elapsed, budget)
	}
	if prog.factBuilds > 1 {
		t.Errorf("call-graph facts built %d times in one run, want at most 1", prog.factBuilds)
	}
}
