package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// goldenFixtures maps each check to its fixture tree under testdata/.
// Every fixture holds positive findings, an //rrlint:allow suppression
// and a clean case, so the golden file pins all three behaviors.
var goldenFixtures = []struct {
	check string
	dir   string
}{
	{"detrand", "detrand"},
	{"maporder", "maporder"},
	{"errcheck-io", "errcheckio"},
	{"hotpath-alloc", "hotpath"},
	{"faultpoint", "faultpoint"},
	{"lockorder", "lockorder"},
	{"blockinglock", "blockinglock"},
	{"goroleak", "goroleak"},
	{"atomicmix", "atomicmix"},
}

// loadFixture loads one testdata tree and fails the test on loader or
// type-checker errors: a fixture that does not compile proves nothing.
func loadFixture(t *testing.T, dir string) *Program {
	t.Helper()
	prog, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	for _, pkg := range prog.Pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("fixture %s: type error: %v", pkg.Path, e)
		}
	}
	return prog
}

// render formats diagnostics with fixture-relative paths so the golden
// files are stable across checkouts.
func render(t *testing.T, dir string, diags []Diagnostic) string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range diags {
		rel, err := filepath.Rel(abs, d.File)
		if err != nil {
			rel = d.File
		}
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", filepath.ToSlash(rel), d.Line, d.Col, d.Check, d.Message)
	}
	return b.String()
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenFixtures {
		t.Run(tc.check, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			prog := loadFixture(t, dir)
			diags, err := Run(prog, []string{tc.check})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(diags) == 0 {
				t.Fatalf("fixture %s produced no findings; the positive cases are broken", tc.dir)
			}
			got := render(t, dir, diags)

			golden := filepath.Join(dir, "expect.golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to generate): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestSuppressionHonored re-runs each fixture and asserts no finding
// lands on a line covered by an //rrlint:allow comment — the golden
// files pin this too, but this failure mode deserves its own name.
func TestSuppressionHonored(t *testing.T) {
	for _, tc := range goldenFixtures {
		t.Run(tc.check, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			prog := loadFixture(t, dir)
			diags, err := Run(prog, []string{tc.check})
			if err != nil {
				t.Fatal(err)
			}
			idx := buildAllowIndex(prog)
			for _, d := range diags {
				if idx.allows(d.Pos, d.Check) {
					t.Errorf("suppressed finding reported: %s", d)
				}
			}
		})
	}
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text string
		want []string
		ok   bool
	}{
		{"//rrlint:allow detrand", []string{"detrand"}, true},
		{"//rrlint:allow detrand,maporder", []string{"detrand", "maporder"}, true},
		{"//rrlint:allow detrand maporder", []string{"detrand", "maporder"}, true},
		{"//rrlint:allow", []string{"*"}, true},
		{"//rrlint:allow detrand -- reviewed, seed is fixed", []string{"detrand"}, true},
		{"//rrlint:allow detrand # reviewed", []string{"detrand"}, true},
		{"// plain comment", nil, false},
		{"//rrlint:hotpath", nil, false},
	}
	for _, c := range cases {
		got, ok := parseAllow(c.text)
		if ok != c.ok {
			t.Errorf("parseAllow(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) && c.ok {
			t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

// TestCrossFunctionSuppressionAtReportedSite pins the suppression
// contract for the call-graph checks: blockinglock reports in the
// frame that holds the lock, so the allow comment inside napAllowed
// (the callee) must not silence the misplacedAllow call site, while
// the allow on barrier's own fsync line must.
func TestCrossFunctionSuppressionAtReportedSite(t *testing.T) {
	dir := filepath.Join("testdata", "blockinglock")
	prog := loadFixture(t, dir)
	diags, err := Run(prog, []string{"blockinglock"})
	if err != nil {
		t.Fatal(err)
	}
	var callerSite, barrierSite bool
	for _, d := range diags {
		if strings.Contains(d.Message, "napAllowed") {
			callerSite = true
		}
		if d.Line == 52 { // barrier's suppressed j.f.Sync()
			barrierSite = true
		}
	}
	if !callerSite {
		t.Error("allow inside the callee suppressed the caller-site report; suppression must bind to the reported site")
	}
	if barrierSite {
		t.Error("allow at the reported site did not suppress the finding")
	}
}

// TestFactsSharedAcrossChecks is the perf contract: one Run over all
// four cross-function checks builds the call-graph facts exactly once.
func TestFactsSharedAcrossChecks(t *testing.T) {
	prog := loadFixture(t, filepath.Join("testdata", "lockorder"))
	if _, err := Run(prog, []string{"lockorder", "blockinglock", "goroleak", "atomicmix"}); err != nil {
		t.Fatal(err)
	}
	if prog.factBuilds != 1 {
		t.Errorf("facts built %d times across four checks, want 1", prog.factBuilds)
	}
}

func TestRunUnknownCheck(t *testing.T) {
	prog := loadFixture(t, filepath.Join("testdata", "hotpath"))
	if _, err := Run(prog, []string{"no-such-check"}); err == nil {
		t.Fatal("Run accepted an unknown check name")
	}
}

// TestRepoIsLintClean is the regression test for the violations this
// suite surfaced and fixed (a discarded encoder error in the chaos
// baseline, the mis-shaped metric-name literals): the entire
// repository must stay clean under every check.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	prog, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("Load repo: %v", err)
	}
	for _, pkg := range prog.Pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, e)
		}
	}
	diags, err := Run(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}
