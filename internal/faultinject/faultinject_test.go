package faultinject

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Enabled(LogBitFlip) || in.Fire(ICDrop) {
		t.Fatal("nil injector fired")
	}
	if in.Rand(ICDelay, 10) != 0 {
		t.Fatal("nil injector drew a value")
	}
	data := []byte{1, 2, 3}
	out, applied := in.Corrupt(data)
	if !bytes.Equal(out, []byte{1, 2, 3}) || applied != nil {
		t.Fatal("nil injector corrupted data")
	}
	r := strings.NewReader("abc")
	if in.WrapReader(r, 0) != io.Reader(r) {
		t.Fatal("nil injector wrapped the reader")
	}
	if in.Fork("x") != nil || in.Restrict("x", LogBitFlip) != nil {
		t.Fatal("nil injector forked non-nil")
	}
	if in.Counts() != nil || in.String() != "" {
		t.Fatal("nil injector reported counts")
	}
}

func TestParse(t *testing.T) {
	for _, spec := range []string{"", "none", "none@3"} {
		in, err := Parse(spec)
		if err != nil || in != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", spec, in, err)
		}
	}
	in, err := Parse("default@1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Points() {
		if !in.Enabled(p) {
			t.Fatalf("default spec leaves %s disabled", p)
		}
	}
	in, err = Parse("log.bitflip,ic.drop@7")
	if err != nil {
		t.Fatal(err)
	}
	if !in.Enabled(LogBitFlip) || !in.Enabled(ICDrop) || in.Enabled(LogTruncate) {
		t.Fatal("subset spec enabled the wrong points")
	}
	for _, bad := range []string{"default", "bogus.point@1", "default@x", "@1", ",@2"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

// Firing decisions must be a pure function of (seed, point, call #).
func TestDeterminism(t *testing.T) {
	run := func() []bool {
		in, _ := Parse("ic.delay,ic.drop@42")
		var out []bool
		for i := 0; i < 5000; i++ {
			out = append(out, in.Fire(ICDelay))
			out = append(out, in.Fire(ICDrop))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical runs", i)
		}
	}
	// Order independence across points: consulting only one point
	// yields the same stream as interleaving with another.
	in, _ := Parse("ic.delay,ic.drop@42")
	var solo []bool
	for i := 0; i < 5000; i++ {
		solo = append(solo, in.Fire(ICDelay))
	}
	for i := 0; i < 5000; i++ {
		if solo[i] != a[2*i] {
			t.Fatalf("ic.delay decision %d depends on other points' consultations", i)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent, _ := Parse("ic.drop@1")
	a := parent.Fork("cell-a")
	b := parent.Fork("cell-b")
	a2 := parent.Fork("cell-a")
	fires := func(in *Injector) int {
		for i := 0; i < 100000; i++ {
			if in.Fire(ICDrop) {
				return i
			}
		}
		return -1
	}
	fa, fb, fa2 := fires(a), fires(b), fires(a2)
	if fa != fa2 {
		t.Fatalf("same-label forks disagree: %d vs %d", fa, fa2)
	}
	if fa == fb {
		t.Fatalf("different-label forks both fire at %d (suspiciously correlated)", fa)
	}
}

func TestOneShotFiresExactlyOnce(t *testing.T) {
	in := New(9, ICDrop)
	n := 0
	for i := 0; i < 100000; i++ {
		if in.Fire(ICDrop) {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("one-shot point fired %d times", n)
	}
	if got := in.Counts()[ICDrop]; got != 1 {
		t.Fatalf("Counts[ic.drop] = %d", got)
	}
	if s := in.String(); s != "ic.drop×1" {
		t.Fatalf("String() = %q", s)
	}
}

func TestCorruptBitFlip(t *testing.T) {
	in := New(3, LogBitFlip)
	orig := bytes.Repeat([]byte{0xAA}, 64)
	data := append([]byte(nil), orig...)
	out, applied := in.Corrupt(data)
	if len(applied) != 1 || len(out) != len(orig) {
		t.Fatalf("applied=%v len=%d", applied, len(out))
	}
	diff := 0
	for i := range out {
		if out[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes changed, want exactly 1", diff)
	}
}

func TestCorruptTruncate(t *testing.T) {
	in := New(5, LogTruncate)
	data := bytes.Repeat([]byte{7}, 4096)
	out, applied := in.Corrupt(data)
	if len(out) >= len(data) && len(applied) != 0 {
		t.Fatalf("truncate reported but kept %d of %d bytes", len(out), len(data))
	}
	if len(out) == 0 {
		t.Fatal("truncate produced an empty log (should keep at least 1 byte)")
	}
}

func TestShortReader(t *testing.T) {
	in := New(11, LogShortRead)
	src := bytes.Repeat([]byte{1}, 1<<17)
	r := in.WrapReader(bytes.NewReader(src), int64(len(src)))
	got, err := io.ReadAll(r)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	if len(got) == 0 || len(got) >= len(src) {
		t.Fatalf("short read returned %d of %d bytes", len(got), len(src))
	}
}

func TestRestrict(t *testing.T) {
	in, _ := Parse("default@1")
	only := in.Restrict("cell", LogBitFlip)
	if !only.Enabled(LogBitFlip) {
		t.Fatal("restricted point disabled")
	}
	for _, p := range Points() {
		if p != LogBitFlip && only.Enabled(p) {
			t.Fatalf("%s survived Restrict", p)
		}
	}
	if in.Restrict("cell") != nil {
		t.Fatal("empty Restrict should be nil")
	}
}

// TestPointsParseRoundTrip cross-checks the registry with the spec
// parser in both directions: every point Points() lists must parse
// back into an injector that enables exactly that point, and
// point-shaped names outside the registry must be rejected. rrlint's
// faultpoint check proves the same property for string literals and
// -faults docs across the tree at lint time; this pins the runtime
// half.
func TestPointsParseRoundTrip(t *testing.T) {
	seen := make(map[Point]bool)
	for _, p := range Points() {
		if seen[p] {
			t.Errorf("Points() lists %q twice", p)
		}
		seen[p] = true
		in, err := Parse(string(p) + "@1")
		if err != nil {
			t.Errorf("registered point %q rejected by Parse: %v", p, err)
			continue
		}
		if !in.Enabled(p) {
			t.Errorf("Parse(%q@1) did not enable %q", p, p)
		}
		for _, q := range Points() {
			if q != p && in.Enabled(q) {
				t.Errorf("Parse(%q@1) also enabled %q", p, q)
			}
		}
		if !strings.Contains(pointList(), string(p)) {
			t.Errorf("pointList() (the parser's error text) omits %q", p)
		}
	}
	for _, typo := range []string{"log.bitflop", "ic.dealy", "flush.crsh"} {
		if _, err := Parse(typo + "@1"); err == nil {
			t.Errorf("typo'd point %q accepted by Parse", typo)
		}
	}
	// The default spec must enable the whole registry.
	in, err := Parse("default@1")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Points() {
		if !in.Enabled(p) {
			t.Errorf("default spec missing registered point %q", p)
		}
	}
}

// TestNetPointsRegistered pins the net.* transport points into the
// registry contract: every NetPoints() entry is a registered Point
// (so the round-trip above covers it), IsNetPoint agrees with the
// slice in both directions, and the names carry the net. prefix the
// chaos grid's Restrict labels rely on.
func TestNetPointsRegistered(t *testing.T) {
	all := make(map[Point]bool)
	for _, p := range Points() {
		all[p] = true
	}
	if len(NetPoints()) == 0 {
		t.Fatal("NetPoints() is empty")
	}
	for _, p := range NetPoints() {
		if !all[p] {
			t.Errorf("net point %q missing from Points()", p)
		}
		if !IsNetPoint(p) {
			t.Errorf("IsNetPoint(%q) = false for a NetPoints() entry", p)
		}
		if !strings.HasPrefix(string(p), "net.") {
			t.Errorf("net point %q lacks the net. prefix", p)
		}
	}
	for _, p := range Points() {
		if IsNetPoint(p) != strings.HasPrefix(string(p), "net.") {
			t.Errorf("IsNetPoint(%q) disagrees with the net. prefix", p)
		}
	}
}

// TestFireZeroAlloc: the interconnect consults Fire per message event
// and the log encoder per frame, so consulting every point, firing or
// not, must not allocate. 64 rounds a run let the probabilistic points
// fire inside the measured runs, not only in the warm-up.
func TestFireZeroAlloc(t *testing.T) {
	points := Points()
	in := New(1, points...)
	fired := 0
	n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			for _, p := range points {
				if in.Fire(p) {
					fired++
				}
			}
		}
	})
	if n != 0 {
		t.Errorf("Fire over every point allocates %.0f allocs/op, want 0", n)
	}
	if fired == 0 {
		t.Error("no point fired: the firing path went unmeasured")
	}
}
