package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"relaxreplay"
	"relaxreplay/internal/frame"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/telemetry"
)

// buildRRLog compiles the CLI once per test into a temp dir.
func buildRRLog(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and execs the rrlog binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "rrlog")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runRRLog(t *testing.T, bin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("run rrlog %v: %v", args, err)
		}
		return out.String(), errb.String(), ee.ExitCode()
	}
	return out.String(), errb.String(), 0
}

// writeLog records fft on 4 cores at scale 1 with the provenance
// sideband, as `rrsim -app fft -cores 4 -scale 1 -provenance -o`
// does, and returns the file's path.
func writeLog(t *testing.T, path string, v relaxreplay.Variant) string {
	t.Helper()
	cfg := relaxreplay.DefaultConfig()
	cfg.Cores = 4
	cfg.Variant = v
	cfg.Provenance = relaxreplay.NewProvenanceCollector()
	rec, err := relaxreplay.Record(cfg, relaxreplay.MustKernel("fft", cfg.Cores, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAnalyses drives the built binary through every analysis of a
// saved log: the summary sections, the structural diff, the Chrome
// trace with and without the replay, and a damaged copy.
func TestAnalyses(t *testing.T) {
	bin := buildRRLog(t)
	dir := t.TempDir()
	opt := writeLog(t, filepath.Join(dir, "fft.rrlog"), relaxreplay.Opt)

	t.Run("summary", func(t *testing.T) {
		out, stderr, code := runRRLog(t, bin, "-log", opt)
		if code != 0 {
			t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
		}
		for _, want := range []string{
			"per-core summary",
			"interval termination attribution (from provenance)",
			"interval size (instructions)",
			"fragmentation (inorder blocks per interval)",
			"reordered/patched entries per interval",
			"conflicting cache lines",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("summary lacks %q:\n%s", want, out)
			}
		}
	})

	t.Run("diff", func(t *testing.T) {
		if out, _, code := runRRLog(t, bin, "-log", opt, "-diff", opt); code != 0 || !strings.Contains(out, "diff: 0 divergence(s)") {
			t.Errorf("self-diff: exit %d, want 0:\n%s", code, out)
		}
		base := writeLog(t, filepath.Join(dir, "fft-base.rrlog"), relaxreplay.Base)
		if out, _, code := runRRLog(t, bin, "-log", opt, "-diff", base); code != 4 {
			t.Errorf("diff against the Base recording: exit %d, want 4:\n%s", code, out)
		}
	})

	t.Run("chrome", func(t *testing.T) {
		for _, tc := range []struct {
			name   string
			args   []string
			replay bool
		}{
			{"record", nil, false},
			{"record+replay", []string{"-app", "fft", "-scale", "1"}, true},
		} {
			path := filepath.Join(dir, tc.name+".trace.json")
			args := append([]string{"-log", opt, "-chrome", path}, tc.args...)
			if _, stderr, code := runRRLog(t, bin, args...); code != 0 {
				t.Fatalf("%s: exit %d; stderr:\n%s", tc.name, code, stderr)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := telemetry.ReadChrome(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			pids := map[int]int{}
			for _, ev := range tr.TraceEvents {
				pids[ev.Pid]++
			}
			if pids[telemetry.PidRecord] == 0 || (pids[telemetry.PidReplay] > 0) != tc.replay {
				t.Errorf("%s: events per pid %v, want record events and replay events %v", tc.name, pids, tc.replay)
			}
		}
	})

	t.Run("damaged", func(t *testing.T) {
		data, err := os.ReadFile(opt)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one byte in the middle of the first group frame's
		// payload (after sync, type and length).
		at := bytes.Index(data, append(frame.Sync[:], byte(replaylog.FrameIvGroup)))
		if at < 0 {
			t.Fatal("no group frame in the log")
		}
		payload := int(binary.LittleEndian.Uint32(data[at+5:]))
		data[at+9+payload/2] ^= 0xff
		bad := filepath.Join(dir, "bad.rrlog")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		out, stderr, code := runRRLog(t, bin, "-log", bad)
		if code == 0 {
			t.Fatalf("damaged log: exit 0; stdout:\n%s", out)
		}
		if !strings.Contains(stderr, "DAMAGED; corruption summary") {
			t.Errorf("damaged log: no corruption summary on stderr:\n%s", stderr)
		}
		if !strings.Contains(out, "per-core summary") {
			t.Errorf("damaged log: what survives was not summarized:\n%s", out)
		}
	})
}
