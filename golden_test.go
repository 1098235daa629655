package relaxreplay

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/replaylog"
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
		if err := replaylog.Encode(&buf, rec.res.Log); err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&b, "%s %s\n", hex.EncodeToString(sum[:]), c.name)
	}
	checkGolden(t, digestFile, b.String())
}

// v3DigestFile pins the SHA-256 of the v3-encoded log of every case
// in digestCases, the bytes every writer now produces. It is
// regenerated like digestFile.
const v3DigestFile = "testdata/log_v3_digests.golden"

func TestGoldenLogV3Digests(t *testing.T) {
	var b strings.Builder
	for _, c := range digestCases() {
		rec, err := Record(c.cfg, c.w)
		if err != nil {
			t.Fatalf("%s: record: %v", c.name, err)
		}
		var buf bytes.Buffer
		if err := replaylog.EncodeV3(&buf, rec.res.Log); err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&b, "%s %s\n", hex.EncodeToString(sum[:]), c.name)
	}
	checkGolden(t, v3DigestFile, b.String())
}

// TestEncodeV3IndependentOfGOMAXPROCS: the v3 encoder compresses its
// group frames on up to GOMAXPROCS goroutines, and every digest case
// must encode to the same bytes with 1, 2 and 8 of them, with and
// without log.dupframe armed at a fixed seed.
func TestEncodeV3IndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range digestCases() {
		rec, err := Record(c.cfg, c.w)
		if err != nil {
			t.Fatalf("%s: record: %v", c.name, err)
		}
		for _, dup := range []bool{false, true} {
			var want []byte
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				var inj *faultinject.Injector
				if dup {
					inj = faultinject.New(21, faultinject.LogDupFrame)
				}
				var buf bytes.Buffer
				if err := replaylog.EncodeV3With(&buf, rec.res.Log, inj); err != nil {
					t.Fatalf("%s at GOMAXPROCS=%d: encode: %v", c.name, procs, err)
				}
				if want == nil {
					want = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s (dupframe %v): GOMAXPROCS=%d encodes differently from GOMAXPROCS=1", c.name, dup, procs)
				}
			}
		}
	}
}

// salvageFile pins what the robust decoder recovers from damaged v2
// and v3 logs: for a few digestCases logs under each seeded damage,
// the SHA-256 of the salvaged log (re-encoded as v2) and the
// CorruptionReport summary. A change to the frame scan, the decode
// loops or the salvage accounting that moves either fails
// TestGoldenSalvage.
const salvageFile = "testdata/salvage_reports.golden"

func TestGoldenSalvage(t *testing.T) {
	want := map[string]bool{"kernel/lu": true, "litmus/sb": true, "ocean/inf": true}
	encoders := []struct {
		name string
		enc  func(*bytes.Buffer, *replaylog.Log) error
	}{
		{"v2", func(b *bytes.Buffer, l *replaylog.Log) error { return replaylog.Encode(b, l) }},
		{"v3", func(b *bytes.Buffer, l *replaylog.Log) error { return replaylog.EncodeV3(b, l) }},
	}
	var b strings.Builder
	for _, c := range digestCases() {
		if !want[c.name] {
			continue
		}
		rec, err := Record(c.cfg, c.w)
		if err != nil {
			t.Fatalf("%s: record: %v", c.name, err)
		}
		for _, e := range encoders {
			var clean bytes.Buffer
			if err := e.enc(&clean, rec.res.Log); err != nil {
				t.Fatalf("%s: encode %s: %v", c.name, e.name, err)
			}
			for seed := int64(1); seed <= 2; seed++ {
				for _, d := range logDamages {
					bad := d.apply(clean.Bytes(), rand.New(rand.NewSource(seed)), 6)
					fmt.Fprintf(&b, "%s %s %s/%d %s\n", c.name, e.name, d.name, seed, salvageLine(bad))
				}
			}
		}
	}
	checkGolden(t, salvageFile, b.String())
}

// salvageLine decodes damaged bytes robustly and renders the outcome
// on one line.
func salvageLine(data []byte) string {
	l, rep, err := replaylog.DecodeParallel(bytes.NewReader(data))
	if err != nil {
		return "error: " + err.Error()
	}
	var re bytes.Buffer
	digest := "unencodable"
	if replaylog.Encode(&re, l) == nil {
		sum := sha256.Sum256(re.Bytes())
		digest = hex.EncodeToString(sum[:])
	}
	return fmt.Sprintf("log=%s report=%s", digest, strings.ReplaceAll(rep.Summary(), "\n", " | "))
}

// logDamages are the seeded corruptions TestGoldenSalvage applies.
// Each leaves the first skip bytes (the preamble) alone. dupframe
// copies the bytes between two consecutive sync words, so it finds
// frames without parsing a header.
var logDamages = []struct {
	name  string
	apply func(data []byte, rng *rand.Rand, skip int) []byte
}{
	{"bitflip", func(data []byte, rng *rand.Rand, skip int) []byte {
		out := append([]byte(nil), data...)
		out[skip+rng.Intn(len(out)-skip)] ^= 1 << rng.Intn(8)
		return out
	}},
	{"truncate", func(data []byte, rng *rand.Rand, skip int) []byte {
		return append([]byte(nil), data[:skip+rng.Intn(len(data)-skip)]...)
	}},
	{"splice", func(data []byte, rng *rand.Rand, skip int) []byte {
		at := skip + rng.Intn(len(data)-skip)
		junk := make([]byte, 5+rng.Intn(40))
		rng.Read(junk)
		// A sync word with a plausible header inside the junk: the
		// scan must reject it, not trust its length.
		junk = append(junk, 0xF5, 'R', 'F', '2', byte(1+rng.Intn(8)), byte(rng.Intn(256)), 0, 0, 0)
		out := append([]byte(nil), data[:at]...)
		out = append(out, junk...)
		return append(out, data[at:]...)
	}},
	{"dupframe", func(data []byte, rng *rand.Rand, skip int) []byte {
		sync := []byte{0xF5, 'R', 'F', '2'}
		var starts []int
		for i := skip; ; {
			j := bytes.Index(data[i:], sync)
			if j < 0 {
				break
			}
			starts = append(starts, i+j)
			i += j + 1
		}
		starts = append(starts, len(data))
		k := rng.Intn(len(starts) - 1)
		frame := data[starts[k]:starts[k+1]]
		out := append([]byte(nil), data[:starts[k+1]]...)
		out = append(out, frame...)
		return append(out, data[starts[k+1]:]...)
	}},
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

// statsFile pins each digestCases recording's cycle count and the
// SHA-256 of its per-core pipeline statistics, per-core recorder
// statistics and memory-system statistics. A run-loop or model change
// that moves any counter fails TestGoldenRecordStats; the file is
// rewritten with -update.
const statsFile = "testdata/record_stats.golden"

func TestGoldenRecordStats(t *testing.T) {
	var b strings.Builder
	for _, c := range digestCases() {
		rec, err := Record(c.cfg, c.w)
		if err != nil {
			t.Fatalf("%s: record: %v", c.name, err)
		}
		res := rec.res
		h := sha256.New()
		fmt.Fprintf(h, "%v\n%v\n%v\n", res.CoreStats, res.RecStats, res.MemStats)
		fmt.Fprintf(&b, "%s cycles=%d stats=%s\n", c.name, res.Cycles, hex.EncodeToString(h.Sum(nil)))
	}
	checkGolden(t, statsFile, b.String())
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
