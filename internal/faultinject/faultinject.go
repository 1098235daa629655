// Package faultinject is a deterministic, seeded fault-injection
// subsystem: the chaos engine behind `-faults`. An Injector holds a
// set of named fault points, each with its own independent PRNG stream
// derived from (seed, point name), so firing decisions are reproducible
// regardless of the order in which different points are consulted.
//
// Every method is nil-safe: a nil *Injector never fires, costs one
// predicted branch, and lets production code hold an always-present
// handle without guarding call sites — the same discipline package
// telemetry uses. With a nil (or empty) injector the instrumented
// pipeline is byte-identical to the uninstrumented one (tested in
// internal/experiments).
//
// Fault points model the hostile conditions the RelaxReplay pipeline
// must survive (see DESIGN.md "Fault model"): corrupted or truncated
// log bytes, short reads/writes, duplicated log frames, a recorder
// that crashes before its last log-buffer flush, and an interconnect
// that delays or drops messages.
package faultinject

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"relaxreplay/internal/telemetry"
)

// Point names one fault-injection site.
type Point string

// The named fault points. Byte-level log faults (bitflip, truncate,
// shortwrite) apply in Corrupt; shortread applies in WrapReader;
// dupframe is consulted by the replaylog v2 encoder per frame;
// flush.crash by core.Session at finalize; the ic.* points by the
// interconnect ring per message event.
const (
	LogBitFlip    Point = "log.bitflip"    // flip one random bit of the encoded log
	LogTruncate   Point = "log.truncate"   // cut the encoded log at a random offset
	LogShortWrite Point = "log.shortwrite" // writer crash: keep only a random prefix
	LogShortRead  Point = "log.shortread"  // reader stops early with ErrUnexpectedEOF
	LogDupFrame   Point = "log.dupframe"   // encoder emits one frame twice
	FlushCrash    Point = "flush.crash"    // recorder crash before the final log flush
	ICDelay       Point = "ic.delay"       // interconnect message injection delayed
	ICDrop        Point = "ic.drop"        // one interconnect message silently dropped

	// Network stream faults, consulted by the rrnet fault transport
	// (internal/rrnet.WrapFaultConn) once per wire frame written. They
	// attack the live rrd→rrproc stream rather than log bytes at rest.
	NetDrop    Point = "net.drop"         // one wire frame silently vanishes in transit
	NetDelay   Point = "net.delay"        // a wire frame's delivery is delayed
	NetReset   Point = "net.reset"        // the connection is reset mid-stream
	NetPartial Point = "net.partial"      // the connection dies mid-frame (a prefix was delivered)
	NetReorder Point = "net.reorder-conn" // adjacent wire frames are delivered out of order
)

// Points returns every known fault point in deterministic order.
func Points() []Point {
	return []Point{
		LogBitFlip, LogTruncate, LogShortWrite, LogShortRead,
		LogDupFrame, FlushCrash, ICDelay, ICDrop,
		NetDrop, NetDelay, NetReset, NetPartial, NetReorder,
	}
}

// NetPoints returns the network-stream subset of the registry: the
// points the rrnet fault transport consults. The file-oriented chaos
// matrix excludes them (they never fire without a live stream) and the
// rrd/rrproc chaos grid is built from them.
func NetPoints() []Point {
	return []Point{NetDrop, NetDelay, NetReset, NetPartial, NetReorder}
}

// IsNetPoint reports whether p is one of the network-stream points.
func IsNetPoint(p Point) bool {
	for _, q := range NetPoints() {
		if p == q {
			return true
		}
	}
	return false
}

// pointCfg is the static firing policy of one point. One-shot points
// arm on the N-th consultation (N drawn once from the PRNG inside
// horizon) and fire exactly once; probabilistic points fire on each
// consultation with probability prob.
type pointCfg struct {
	oneShot bool
	horizon uint64  // one-shot: arming window in consultations
	prob    float64 // probabilistic: per-consultation firing chance
}

// defaultCfg returns the default policy for a point. Log-byte faults
// arm on the first consultation (there is exactly one Corrupt/encode
// pass per run); interconnect faults spread over the message stream.
func defaultCfg(p Point) pointCfg {
	switch p {
	case ICDelay:
		// Dense enough to land even in the scale-1 chaos-smoke runs
		// (hundreds of ring injections); a delay only perturbs timing,
		// so density costs nothing in larger runs.
		return pointCfg{prob: 1.0 / 64}
	case ICDrop:
		return pointCfg{oneShot: true, horizon: 2048}
	case FlushCrash:
		return pointCfg{oneShot: true, horizon: 1}
	case NetDelay:
		// Per-frame delivery delay: frequent, only perturbs timing.
		return pointCfg{prob: 1.0 / 8}
	case NetDrop, NetReset, NetPartial, NetReorder:
		// One hit somewhere in the first frames of a stream: small
		// sessions still see the fault, and the retry/resume machinery
		// has a realistic mid-stream incident to recover from.
		return pointCfg{oneShot: true, horizon: 64}
	default: // log.* byte faults: one consultation per encode
		return pointCfg{oneShot: true, horizon: 1}
	}
}

// pointState is the mutable per-point runtime state.
type pointState struct {
	cfg     pointCfg
	rng     splitmix // independent stream per point
	armedAt uint64   // one-shot: consultation index that fires
	calls   uint64
	fired   uint64
}

// Injector is a set of enabled fault points with deterministic firing
// decisions. The zero of usefulness is nil: never fires. An Injector
// is safe for concurrent use, but determinism additionally requires
// that consultations of a single point happen in a deterministic
// order — give each concurrent pipeline its own Fork.
type Injector struct {
	mu     sync.Mutex
	seed   uint64
	label  string
	points map[Point]*pointState

	tel *telemetry.Counter // faults_injected, resolved lazily
}

// splitmix is a splitmix64 PRNG: tiny, seedable, stable across Go
// releases (unlike math/rand's unspecified stream).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hash64 mixes a string into a seed (FNV-1a then splitmix finalizer).
func hash64(seed uint64, s string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	sm := splitmix(h)
	return sm.next()
}

// New builds an injector with the given points enabled at their
// default policies. An empty point list returns nil (disabled).
func New(seed uint64, points ...Point) *Injector {
	if len(points) == 0 {
		return nil
	}
	in := &Injector{seed: seed, points: make(map[Point]*pointState, len(points))}
	for _, p := range points {
		in.enable(p, defaultCfg(p))
	}
	return in
}

func (in *Injector) enable(p Point, cfg pointCfg) {
	st := &pointState{cfg: cfg, rng: splitmix(hash64(in.seed, in.label+"|"+string(p)))}
	if cfg.oneShot {
		h := cfg.horizon
		if h == 0 {
			h = 1
		}
		st.armedAt = st.rng.next() % h
	}
	in.points[p] = st
}

// Parse builds an injector from a "spec@seed" string:
//
//	default@1              every known point, default policies
//	log.bitflip@7          a single point
//	log.truncate,ic.drop@3 a comma-separated subset
//	none@1  (or "")        disabled (returns nil)
//
// The seed is a decimal uint64 and is required for any enabled spec so
// chaos runs are reproducible by construction.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	at := strings.LastIndex(spec, "@")
	if at < 0 {
		return nil, fmt.Errorf("faultinject: spec %q has no @seed (e.g. %q)", spec, "default@1")
	}
	seed, err := strconv.ParseUint(spec[at+1:], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("faultinject: bad seed in %q: %v", spec, err)
	}
	names := strings.TrimSpace(spec[:at])
	if names == "none" {
		return nil, nil
	}
	if names == "" {
		return nil, fmt.Errorf("faultinject: spec %q names no fault points (use %q to disable)", spec, "none")
	}
	if names == "default" {
		return New(seed, Points()...), nil
	}
	known := make(map[Point]bool)
	for _, p := range Points() {
		known[p] = true
	}
	var pts []Point
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !known[Point(n)] {
			return nil, fmt.Errorf("faultinject: unknown fault point %q (known: %s)", n, pointList())
		}
		pts = append(pts, Point(n))
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("faultinject: spec %q names no fault points", spec)
	}
	return New(seed, pts...), nil
}

func pointList() string {
	var ss []string
	for _, p := range Points() {
		ss = append(ss, string(p))
	}
	return strings.Join(ss, ", ")
}

// Fork derives a child injector with the same enabled points but an
// independent, label-derived PRNG stream. Concurrent pipelines (e.g.
// the chaos matrix cells) each Fork so decisions stay deterministic
// regardless of scheduling.
func (in *Injector) Fork(label string) *Injector {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	child := &Injector{seed: hash64(in.seed, label), label: label,
		points: make(map[Point]*pointState, len(in.points))}
	for p, st := range in.points {
		child.enable(p, st.cfg)
	}
	return child
}

// Restrict returns a Fork with only the given points enabled (points
// not enabled on the parent stay disabled). Used by the chaos matrix
// to isolate one fault per cell. Returns nil when nothing survives.
func (in *Injector) Restrict(label string, points ...Point) *Injector {
	if in == nil {
		return nil
	}
	child := in.Fork(label)
	for p := range child.points {
		keep := false
		for _, k := range points {
			if p == k {
				keep = true
			}
		}
		if !keep {
			delete(child.points, p)
		}
	}
	if len(child.points) == 0 {
		return nil
	}
	return child
}

// SetTelemetry routes a "faults.injected" counter (sharded by nothing;
// shard 0) into reg-backed telemetry. Nil-safe on both sides.
func (in *Injector) SetTelemetry(t *telemetry.Telemetry) {
	if in == nil {
		return
	}
	reg := t.Registry()
	if reg == nil {
		return
	}
	in.mu.Lock()
	in.tel = reg.Counter("faults.injected")
	in.mu.Unlock()
}

// Enabled reports whether the point can ever fire.
func (in *Injector) Enabled(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.points[p] != nil
}

// Fire consults the point and reports whether the fault happens now.
// Deterministic given the seed and the per-point consultation count.
func (in *Injector) Fire(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.points[p]
	if st == nil {
		return false
	}
	call := st.calls
	st.calls++
	if st.cfg.oneShot {
		if st.fired > 0 || call != st.armedAt {
			return false
		}
	} else {
		// 53-bit uniform in [0,1).
		if float64(st.rng.next()>>11)/(1<<53) >= st.cfg.prob {
			return false
		}
	}
	st.fired++
	in.tel.Inc(0)
	return true
}

// ArmWithin re-arms a one-shot point to fire within the next n
// consultations. Sites that know how many consultations are coming
// (e.g. the log encoder knows its frame count) call this so the fault
// lands inside the run instead of beyond it. No-op for disabled,
// already-fired, or probabilistic points, or n == 0.
func (in *Injector) ArmWithin(p Point, n uint64) {
	if in == nil || n == 0 {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.points[p]
	if st == nil || !st.cfg.oneShot || st.fired > 0 {
		return
	}
	st.armedAt = st.calls + st.rng.next()%n
}

// Rand returns a deterministic value in [0, n) drawn from the point's
// stream (0 when disabled or n == 0). Used by firing sites to pick a
// victim (byte offset, core, interval count) reproducibly.
func (in *Injector) Rand(p Point, n uint64) uint64 {
	if in == nil || n == 0 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.points[p]
	if st == nil {
		return 0
	}
	return st.rng.next() % n
}

// Counts returns the per-point fired counts (nil when disabled).
func (in *Injector) Counts() map[Point]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Point]uint64, len(in.points))
	for p, st := range in.points {
		if st.fired > 0 {
			out[p] = st.fired
		}
	}
	return out
}

// String describes the fired faults, sorted, e.g.
// "log.bitflip×1, ic.delay×12"; "" when nothing fired.
func (in *Injector) String() string {
	cs := in.Counts()
	if len(cs) == 0 {
		return ""
	}
	var keys []string
	for p := range cs {
		keys = append(keys, string(p))
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s×%d", k, cs[Point(k)]))
	}
	return strings.Join(parts, ", ")
}

// Corrupt applies the enabled byte-level log faults (bitflip,
// truncate, shortwrite) to an encoded log image, returning the
// (possibly shortened) result and human-readable descriptions of what
// was done. The input slice is modified in place for bit flips. With
// no applicable point enabled it returns data unchanged.
func (in *Injector) Corrupt(data []byte) ([]byte, []string) {
	if in == nil || len(data) == 0 {
		return data, nil
	}
	var applied []string
	if in.Fire(LogBitFlip) {
		off := in.Rand(LogBitFlip, uint64(len(data))*8)
		data[off/8] ^= 1 << (off % 8)
		applied = append(applied, fmt.Sprintf("bit-flip at byte %d bit %d", off/8, off%8))
	}
	if in.Fire(LogTruncate) {
		// Keep at least one byte so the decoder sees a torn file, not
		// an empty one (the empty case is separately tested).
		cut := 1 + in.Rand(LogTruncate, uint64(len(data)))
		if cut < uint64(len(data)) {
			data = data[:cut]
			applied = append(applied, fmt.Sprintf("truncated to %d bytes", cut))
		}
	}
	if in.Fire(LogShortWrite) {
		// A crashed writer loses a tail suffix, typically smaller than
		// a truncation: a lost final write of up to 4KiB, clamped so
		// the fault always bites (lose at least 1, keep at least 1).
		window := uint64(4096)
		if w := uint64(len(data) - 1); w < window {
			window = w
		}
		if window > 0 {
			lose := 1 + in.Rand(LogShortWrite, window)
			data = data[:uint64(len(data))-lose]
			applied = append(applied, fmt.Sprintf("short write lost final %d bytes", lose))
		}
	}
	return data, applied
}

// WrapReader applies the log.shortread point: the returned reader
// yields a random-length prefix of r and then fails with
// io.ErrUnexpectedEOF, as a flaky transport would. size, when known
// (> 1), bounds the cut so the fault always bites strictly inside the
// stream; pass 0 for an unknown length (the cut then falls within the
// first 64KiB). Without the point enabled (or with a nil injector) r
// is returned unwrapped.
func (in *Injector) WrapReader(r io.Reader, size int64) io.Reader {
	if in == nil || !in.Enabled(LogShortRead) {
		return r
	}
	if !in.Fire(LogShortRead) {
		return r
	}
	window := uint64(1 << 16)
	if size > 1 {
		window = uint64(size - 1)
	}
	return &shortReader{r: r, remain: int64(1 + in.Rand(LogShortRead, window))}
}

type shortReader struct {
	r      io.Reader
	remain int64
}

func (s *shortReader) Read(p []byte) (int, error) {
	if s.remain <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if int64(len(p)) > s.remain {
		p = p[:s.remain]
	}
	n, err := s.r.Read(p)
	s.remain -= int64(n)
	if err == io.EOF {
		// The underlying stream ended before the cut: not a fault.
		return n, err
	}
	if s.remain <= 0 && err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}
