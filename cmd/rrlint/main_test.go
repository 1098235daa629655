package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildRRLint compiles the CLI once per test binary into a temp dir.
func buildRRLint(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs the rrlint binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "rrlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runRRLint(t *testing.T, bin, dir string, args ...string) (stdout string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run rrlint %v: %v", args, err)
		}
		return string(out), ee.ExitCode()
	}
	return string(out), 0
}

// TestExitCodes drives the built binary through its three exit
// statuses. internal/lint's TestGolden pins every fixture's findings;
// this test pins what the CLI adds: the go vet-style line format with
// fixture-relative positions, the exit codes, and usage errors.
func TestExitCodes(t *testing.T) {
	bin := buildRRLint(t)
	fixture := filepath.Join("..", "..", "internal", "lint", "testdata", "goroleak")

	// Findings: exit 1, stdout exactly the fixture's golden.
	t.Run("goroleak", func(t *testing.T) {
		out, code := runRRLint(t, bin, fixture, "-checks", "goroleak", "./...")
		if code != 1 {
			t.Fatalf("exit code = %d, want 1; output:\n%s", code, out)
		}
		golden, err := os.ReadFile(filepath.Join(fixture, "expect.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if out != string(golden) {
			t.Errorf("CLI output diverges from golden\n--- got ---\n%s--- want ---\n%s", out, golden)
		}
	})
	// The goroleak fixture has nothing for detrand to find: clean exit.
	t.Run("detrand", func(t *testing.T) {
		if out, code := runRRLint(t, bin, fixture, "-checks", "detrand", "./..."); code != 0 || out != "" {
			t.Errorf("clean run: exit=%d output=%q, want 0 and empty", code, out)
		}
	})
	// A bad -checks value is a usage error, not a clean run.
	t.Run("no-such-check", func(t *testing.T) {
		if _, code := runRRLint(t, bin, fixture, "-checks", "no-such-check", "./..."); code != 2 {
			t.Errorf("exit code = %d, want 2", code)
		}
	})
}
