package main

import (
	"encoding/json"
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

// TestExitCodes drives the built binary over the lint fixtures: each
// positive tree must exit 1 printing exactly the golden findings
// (correct file:line:col positions), and a tree with no findings for
// the selected check must exit 0.
func TestExitCodes(t *testing.T) {
	bin := buildRRLint(t)
	fixtures := filepath.Join("..", "..", "internal", "lint", "testdata")

	cases := []struct {
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
	for _, tc := range cases {
		t.Run(tc.check, func(t *testing.T) {
			dir := filepath.Join(fixtures, tc.dir)
			out, code := runRRLint(t, bin, dir, "-checks", tc.check, "./...")
			if code != 1 {
				t.Fatalf("exit code = %d, want 1; output:\n%s", code, out)
			}
			golden, err := os.ReadFile(filepath.Join(dir, "expect.golden"))
			if err != nil {
				t.Fatal(err)
			}
			if out != string(golden) {
				t.Errorf("CLI output diverges from golden\n--- got ---\n%s--- want ---\n%s", out, golden)
			}
		})
	}

	// The hotpath fixture has nothing for detrand to find: clean exit.
	out, code := runRRLint(t, bin, filepath.Join(fixtures, "hotpath"), "-checks", "detrand", "./...")
	if code != 0 || out != "" {
		t.Errorf("clean run: exit=%d output=%q, want 0 and empty", code, out)
	}
}

// TestJSONOutput checks the -json shape CI consumes.
func TestJSONOutput(t *testing.T) {
	bin := buildRRLint(t)
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "hotpath")
	out, code := runRRLint(t, bin, dir, "-json", "-checks", "hotpath-alloc", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var payload struct {
		Findings []struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Check   string `json:"check"`
			Message string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(payload.Findings) != 3 {
		t.Fatalf("got %d findings, want 3", len(payload.Findings))
	}
	for _, f := range payload.Findings {
		if f.Check != "hotpath-alloc" || f.File == "" || f.Line == 0 || f.Col == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}

// TestSARIFOutput: -sarif emits a 2.1.0 log with rrlint as the driver
// and still exits 1 on findings so CI fails while the artifact exists.
func TestSARIFOutput(t *testing.T) {
	bin := buildRRLint(t)
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "blockinglock")
	out, code := runRRLint(t, bin, dir, "-sarif", "-checks", "blockinglock", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings must fail CI even with -sarif)", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name string `json:"name"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("bad SARIF JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "rrlint" {
		t.Errorf("unexpected SARIF header: %+v", log)
	}
	if len(log.Runs[0].Results) == 0 {
		t.Error("SARIF log carries no results for a fixture with findings")
	}
	for _, r := range log.Runs[0].Results {
		if r.RuleID != "blockinglock" {
			t.Errorf("result ruleId = %q, want blockinglock", r.RuleID)
		}
	}
}

// TestUnknownCheckUsage: a bad -checks value is a usage error (2), not
// a clean run.
func TestUnknownCheckUsage(t *testing.T) {
	bin := buildRRLint(t)
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "hotpath")
	if _, code := runRRLint(t, bin, dir, "-checks", "no-such-check", "./..."); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}
