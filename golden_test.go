package relaxreplay

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from the current recordings")

// digestFile pins the SHA-256 of the v2-encoded log of every case in
// digestCases. A simulator or recorder change that alters one recorded
// byte fails TestGoldenLogDigests; a change meant to alter the log
// regenerates the file with `go test -run TestGoldenLogDigests -update .`
// and shows the new digests in its diff.
const digestFile = "testdata/log_digests.golden"

type digestCase struct {
	name string
	cfg  Config
	w    Workload
}

// digestCases covers every bundled kernel and litmus test under the
// default recorder (4 cores, scale 1, Opt, 4K intervals, snoopy), and
// fft under each non-default axis: Base, INF intervals, TSO, SC,
// directory coherence and Lamport ordering. fft at this scale never
// fills a 4K interval, so its INF log equals its default one; ocean,
// which ends intervals on size, pins the INF axis as well.
func digestCases() []digestCase {
	var cases []digestCase
	def := DefaultConfig()
	def.Cores = 4
	for _, k := range Kernels() {
		cases = append(cases, digestCase{"kernel/" + k.Name, def, MustKernel(k.Name, 4, 1)})
	}
	for _, l := range LitmusTests() {
		cfg := def
		cfg.Cores = len(l.Progs)
		cases = append(cases, digestCase{"litmus/" + l.Name, cfg, l.Workload})
	}
	fft := MustKernel("fft", 4, 1)
	for _, v := range []struct {
		name string
		set  func(*Config)
	}{
		{"base", func(c *Config) { c.Variant = Base }},
		{"inf", func(c *Config) { c.MaxIntervalInstrs = 0 }},
		{"tso", func(c *Config) { c.Memory = TSO }},
		{"sc", func(c *Config) { c.Memory = SC }},
		{"directory", func(c *Config) { c.Protocol = Directory }},
		{"lamport", func(c *Config) { c.Ordering = Lamport }},
	} {
		cfg := def
		v.set(&cfg)
		cases = append(cases, digestCase{"fft/" + v.name, cfg, fft})
	}
	inf := def
	inf.MaxIntervalInstrs = 0
	cases = append(cases, digestCase{"ocean/inf", inf, MustKernel("ocean", 4, 1)})
	return cases
}

func TestGoldenLogDigests(t *testing.T) {
	var b strings.Builder
	for _, c := range digestCases() {
		rec, err := Record(c.cfg, c.w)
		if err != nil {
			t.Fatalf("%s: record: %v", c.name, err)
		}
		var buf bytes.Buffer
		if err := rec.WriteLog(&buf); err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&b, "%s %s\n", hex.EncodeToString(sum[:]), c.name)
	}
	checkGolden(t, digestFile, b.String())
}

// replayFile pins Recording.Replay's outcome for every case in
// digestCases: the intervals replayed, the modeled user and OS cycles
// (paper Fig. 13's replay model) and the SHA-256 of the final memory.
// A replayer change that alters any of them fails
// TestGoldenReplayResults; the file is rewritten with -update.
const replayFile = "testdata/replay_results.golden"

func TestGoldenReplayResults(t *testing.T) {
	var b strings.Builder
	for _, c := range digestCases() {
		rec, err := Record(c.cfg, c.w)
		if err != nil {
			t.Fatalf("%s: record: %v", c.name, err)
		}
		rep, err := rec.Replay()
		if err != nil {
			t.Fatalf("%s: replay: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s intervals=%d user=%d os=%d mem=%s\n", c.name, rep.Intervals,
			rep.Timing.UserCycles, rep.Timing.OSCycles, memDigest(rep.FinalMemory))
	}
	checkGolden(t, replayFile, b.String())
}

// memDigest hashes a memory image as its (address, value) pairs in
// address order, each as two little-endian words.
func memDigest(mem map[uint64]uint64) string {
	addrs := make([]uint64, 0, len(mem))
	for a := range mem {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	h := sha256.New()
	var w [16]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint64(w[:8], a)
		binary.LittleEndian.PutUint64(w[8:], mem[a])
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares got line by line with the golden file, first
// rewriting the file under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read %s (run with -update to generate): %v", file, err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s holds %d", len(gotLines)-1, file, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s changed:\n got  %s\n want %s", file, gotLines[i], wantLines[i])
		}
	}
}
