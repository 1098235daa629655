package relaxreplay

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/log_digests.golden from the current recordings")

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
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("read %s (run with -update to generate): %v", digestFile, err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digests, %s holds %d", len(gotLines)-1, digestFile, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("log digest changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
