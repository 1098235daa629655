// Package experiments regenerates every table and figure of the
// paper's evaluation (§5): one driver per figure, each returning both
// structured data (consumed by the benchmarks and tests) and a
// rendered table (printed by cmd/rrbench). Recording runs are cached
// and shared across figures, and — unless disabled — every recording
// is verified by patching, replaying and comparing against the
// recorded execution, plus the workload's own correctness oracle.
//
// Recordings are independent simulations, so the suite runs them
// concurrently: Record is safe for any number of goroutines (duplicate
// requests for the same key share one execution), and each figure
// driver first warms the cache through a bounded worker pool
// (Options.Parallelism workers) before assembling its table serially.
// Results are deterministic regardless of parallelism — the same
// recordings produce byte-identical logs and the tables are built in a
// fixed order.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/core"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/replay"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/telemetry"
	"relaxreplay/internal/workload"
)

// Options configures a Suite.
type Options struct {
	Cores    int
	Scale    int // workload problem-size multiplier
	Protocol coherence.Protocol
	Apps     []string // nil = all kernels
	Verify   bool     // replay-verify every recording
	ClockGHz float64  // for MB/s conversions (paper: 2 GHz)

	// Parallelism bounds how many recordings execute concurrently in
	// RecordAll and the figure drivers' cache-warming pass. 0 selects
	// GOMAXPROCS; 1 runs fully serially (the pre-parallel harness).
	Parallelism int

	// Progress, when non-nil, receives one event as each cache-miss
	// recording starts and one when it finishes. Callbacks are
	// serialized; they may write to a terminal without interleaving.
	Progress func(ProgressEvent)

	// Telemetry, when non-nil, instruments every recording and replay
	// the suite executes, plus the suite's own run accounting
	// ("suite.runs_started", "suite.runs_completed",
	// "suite.run_duration_ms"). nil means zero overhead; tables and
	// logs are byte-identical either way.
	Telemetry *telemetry.Telemetry
}

// DefaultOptions mirrors the paper's default setup: 8 cores, snoopy
// ring, all SPLASH-2 analog kernels, 2 GHz.
func DefaultOptions() Options {
	return Options{Cores: 8, Scale: 3, Verify: true, ClockGHz: 2.0}
}

// IntervalMode selects the paper's two maximum-interval-size settings.
type IntervalMode bool

const (
	// I4K limits intervals to 4K instructions (replay-parallelism
	// oriented recorders).
	I4K IntervalMode = false
	// INF leaves intervals unbounded (sequential-replay oriented
	// recorders such as CoreRacer/QuickRec).
	INF IntervalMode = true
)

func (m IntervalMode) String() string {
	if m == INF {
		return "INF"
	}
	return "4K"
}

// Spec identifies one recording in the suite's (app, variant,
// interval-mode, core-count) cross-product.
type Spec struct {
	App     string
	Variant core.Variant
	Mode    IntervalMode
	Cores   int
}

func (sp Spec) String() string {
	return fmt.Sprintf("%s/%v/%v/p%d", sp.App, sp.Variant, sp.Mode, sp.Cores)
}

// ProgressEvent reports the lifecycle of one executed (cache-miss)
// recording. Started and Completed are suite-wide execution counts at
// the time of the event, so "[Completed/Started]" reads as a live
// progress ratio that converges when the pool drains.
type ProgressEvent struct {
	Spec      Spec
	Done      bool          // false: the run just started; true: it finished
	Err       error         // only set when Done
	Duration  time.Duration // only set when Done
	Started   int
	Completed int
}

// Run is one cached recording (plus its replay, once computed).
type Run struct {
	App     string
	Variant core.Variant
	Mode    IntervalMode
	Cores   int

	W   workload.Workload
	Res *core.Result

	repMu  sync.Mutex
	rep    *replay.Result
	repErr error

	v3Once  sync.Once
	v3Bytes int64
}

// cacheEntry is the singleflight slot for one Spec: the first
// requester executes the recording, everyone else blocks on done.
type cacheEntry struct {
	done chan struct{}
	run  *Run
	err  error
}

// Suite caches recording runs across figures. All methods are safe for
// concurrent use.
type Suite struct {
	opts Options

	mu    sync.Mutex
	cache map[Spec]*cacheEntry

	progMu    sync.Mutex
	started   int
	completed int

	tel suiteTelem
}

// suiteTelem holds the suite's run-accounting metric handles (the
// source of rrbench's ETA line). The zero value is the disabled state.
type suiteTelem struct {
	started   *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	runMillis *telemetry.Histogram
}

func newSuiteTelem(t *telemetry.Telemetry) suiteTelem {
	reg := t.Registry()
	if reg == nil {
		return suiteTelem{}
	}
	return suiteTelem{
		started:   reg.Counter("suite.runs_started"),
		completed: reg.Counter("suite.runs_completed"),
		failed:    reg.Counter("suite.runs_failed"),
		runMillis: reg.Histogram("suite.run_duration_ms"),
	}
}

// NewSuite builds a suite.
func NewSuite(opts Options) *Suite {
	if opts.Cores == 0 {
		opts.Cores = 8
	}
	if opts.Scale == 0 {
		opts.Scale = 3
	}
	if opts.ClockGHz == 0 {
		opts.ClockGHz = 2.0
	}
	return &Suite{opts: opts, cache: make(map[Spec]*cacheEntry), tel: newSuiteTelem(opts.Telemetry)}
}

// Apps returns the kernel names the suite runs.
func (s *Suite) Apps() []string {
	if s.opts.Apps != nil {
		return s.opts.Apps
	}
	var names []string
	for _, k := range workload.Kernels() {
		names = append(names, k.Name)
	}
	return names
}

// Options returns the suite options.
func (s *Suite) Options() Options { return s.opts }

// ParseApps splits a comma-separated kernel list, trims whitespace,
// drops empty entries, and validates every name against the known
// kernels, so "fft, lu" works and a typo fails up front with the
// catalogue in the error.
func ParseApps(csv string) ([]string, error) {
	var out []string
	for _, a := range strings.Split(csv, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if _, err := workload.ByName(a); err != nil {
			var known []string
			for _, k := range workload.Kernels() {
				known = append(known, k.Name)
			}
			return nil, fmt.Errorf("experiments: unknown kernel %q (known: %s)",
				a, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: app list %q names no kernels", csv)
	}
	return out, nil
}

// parallelism resolves Options.Parallelism to a worker count.
func (s *Suite) parallelism() int {
	if s.opts.Parallelism > 0 {
		return s.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Record returns the cached recording for (app, variant, mode, cores),
// running it on first use. Concurrent callers requesting the same key
// share a single execution.
func (s *Suite) Record(app string, v core.Variant, mode IntervalMode, cores int) (*Run, error) {
	return s.record(Spec{App: app, Variant: v, Mode: mode, Cores: cores})
}

func (s *Suite) record(spec Spec) (*Run, error) {
	s.mu.Lock()
	if e, ok := s.cache[spec]; ok {
		s.mu.Unlock()
		<-e.done
		return e.run, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	s.cache[spec] = e
	s.mu.Unlock()

	s.noteStart(spec)
	begin := time.Now()
	e.run, e.err = s.execute(spec)
	close(e.done)
	s.noteDone(spec, e.err, time.Since(begin))
	return e.run, e.err
}

// execute performs one recording (and, with Verify on, its oracle
// check and replay verification). It touches no Suite state, so any
// number of executions may run concurrently.
func (s *Suite) execute(spec Spec) (*Run, error) {
	k, err := workload.ByName(spec.App)
	if err != nil {
		return nil, err
	}
	w := k.Build(spec.Cores, s.opts.Scale)
	rcfg := core.DefaultConfig(spec.Variant)
	if spec.Mode == INF {
		rcfg.MaxIntervalInstrs = 0
	}
	mcfg := machine.DefaultConfig(spec.Cores)
	mcfg.Mem.Protocol = s.opts.Protocol
	mcfg.Telemetry = s.opts.Telemetry
	rcfg.Telemetry = s.opts.Telemetry
	res, err := core.Record(mcfg, rcfg, core.Workload{
		Name: w.Name, Progs: w.Progs, Inputs: w.Inputs, InitMem: w.InitMem,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%v/%v: %w", spec.App, spec.Variant, spec.Mode, err)
	}
	run := &Run{App: spec.App, Variant: spec.Variant, Mode: spec.Mode, Cores: spec.Cores, W: w, Res: res}
	if s.opts.Verify {
		if w.Check != nil {
			if err := w.Check(res.FinalMemory); err != nil {
				return nil, fmt.Errorf("experiments: %s oracle: %w", spec.App, err)
			}
		}
		if _, err := s.Replay(run); err != nil {
			return nil, err
		}
	}
	return run, nil
}

func (s *Suite) noteStart(spec Spec) {
	s.tel.started.Inc(0)
	if s.opts.Progress == nil {
		return
	}
	s.progMu.Lock()
	defer s.progMu.Unlock()
	s.started++
	s.opts.Progress(ProgressEvent{Spec: spec, Started: s.started, Completed: s.completed})
}

func (s *Suite) noteDone(spec Spec, err error, d time.Duration) {
	s.tel.completed.Inc(0)
	if err != nil {
		s.tel.failed.Inc(0)
	}
	s.tel.runMillis.Observe(0, uint64(d.Milliseconds()))
	if s.opts.Progress == nil {
		return
	}
	s.progMu.Lock()
	defer s.progMu.Unlock()
	s.completed++
	s.opts.Progress(ProgressEvent{
		Spec: spec, Done: true, Err: err, Duration: d,
		Started: s.started, Completed: s.completed,
	})
}

// RecordAll pre-records every spec through a worker pool of
// Options.Parallelism goroutines, deduplicating against the cache (and
// within the list). All specs are attempted; the first error in spec
// order is returned.
func (s *Suite) RecordAll(specs []Spec) error {
	seen := make(map[Spec]bool, len(specs))
	todo := make([]Spec, 0, len(specs))
	for _, sp := range specs {
		if !seen[sp] {
			seen[sp] = true
			todo = append(todo, sp)
		}
	}
	_, err := parmap(s, len(todo), func(i int) (*Run, error) { return s.record(todo[i]) })
	return err
}

// parmap applies f to 0..n-1 on the suite's worker pool and returns
// the results in index order, so callers assemble deterministic output
// from possibly-concurrent work. All indices run even after a failure;
// the first error by index wins (matching what a serial loop reports).
func parmap[T any](s *Suite, n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	workers := s.parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			var err error
			if out[i], err = f(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// crossApps builds the suite-apps × configs cross-product at one core
// count — the warm set most figures need.
func (s *Suite) crossApps(cores int, cfgs ...vmCfg) []Spec {
	var specs []Spec
	for _, app := range s.Apps() {
		for _, c := range cfgs {
			specs = append(specs, Spec{App: app, Variant: c.v, Mode: c.m, Cores: cores})
		}
	}
	return specs
}

// vmCfg is a (variant, interval-mode) pair.
type vmCfg struct {
	v core.Variant
	m IntervalMode
}

// allCfgs is the paper's full 2x2 recording matrix.
var allCfgs = []vmCfg{{core.Base, I4K}, {core.Opt, I4K}, {core.Base, INF}, {core.Opt, INF}}

// Replay patches, replays and verifies a recording, returning the
// (cached) replay result with its modeled timing. Safe for concurrent
// callers; the replay executes once and the outcome is memoized.
func (s *Suite) Replay(run *Run) (*replay.Result, error) {
	run.repMu.Lock()
	defer run.repMu.Unlock()
	if run.rep != nil || run.repErr != nil {
		return run.rep, run.repErr
	}
	run.rep, run.repErr = s.replayRun(run)
	return run.rep, run.repErr
}

func (s *Suite) replayRun(run *Run) (*replay.Result, error) {
	cfg := replay.DefaultConfig()
	cfg.Telemetry = s.opts.Telemetry
	rep, err := run.Res.Replay(cfg, run.W.Progs, run.W.InitMem)
	if err != nil {
		return nil, fmt.Errorf("experiments: replay %s/%v/%v: %w", run.App, run.Variant, run.Mode, err)
	}
	return rep, nil
}

// Aggregate metrics over a run --------------------------------------------

// Instructions returns the total retired instruction count.
func (r *Run) Instructions() uint64 {
	var n uint64
	for _, st := range r.Res.CoreStats {
		n += st.Retired
	}
	return n
}

// MemInstructions returns the total retired memory instructions.
func (r *Run) MemInstructions() uint64 {
	var n uint64
	for _, st := range r.Res.CoreStats {
		n += st.MemRetired
	}
	return n
}

// ReorderedFraction returns reordered accesses / memory instructions.
func (r *Run) ReorderedFraction() float64 {
	var re uint64
	for _, st := range r.Res.RecStats {
		re += st.ReorderedLoads + st.ReorderedStores + st.ReorderedAtomics
	}
	m := r.MemInstructions()
	if m == 0 {
		return 0
	}
	return float64(re) / float64(m)
}

// OOOFractions returns the fraction of memory instructions performed
// out of program order, split into loads and stores (Figure 1).
func (r *Run) OOOFractions() (loads, stores float64) {
	var l, st, m uint64
	for _, cs := range r.Res.CoreStats {
		l += cs.OOOLoads
		st += cs.OOOStores
		m += cs.MemRetired
	}
	if m == 0 {
		return 0, 0
	}
	return float64(l) / float64(m), float64(st) / float64(m)
}

// InorderBlocks returns the total number of InorderBlock entries.
func (r *Run) InorderBlocks() uint64 {
	var n uint64
	for _, st := range r.Res.RecStats {
		n += st.InorderBlocks
	}
	return n
}

// BitsPer1K returns uncompressed log bits per 1000 instructions.
func (r *Run) BitsPer1K() float64 {
	n := r.Instructions()
	if n == 0 {
		return 0
	}
	return float64(r.Res.Log.SizeBits()) * 1000 / float64(n)
}

// V3BytesPer1K returns the on-disk (format v3: delta/varint +
// deflate) log bytes per 1000 instructions, the storage companion to
// BitsPer1K's architectural Figure-11 metric. The encoding is
// memoized per Run; an unencodable log reports 0.
func (r *Run) V3BytesPer1K() float64 {
	n := r.Instructions()
	if n == 0 {
		return 0
	}
	r.v3Once.Do(func() {
		var cw byteCounter
		if err := replaylog.EncodeV3(&cw, r.Res.Log); err == nil {
			r.v3Bytes = cw.n
		}
	})
	return float64(r.v3Bytes) * 1000 / float64(n)
}

// byteCounter counts without buffering so V3BytesPer1K never holds a
// second copy of the log.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// LogRateMBps returns the logging bandwidth at the given clock.
func (r *Run) LogRateMBps(clockGHz float64) float64 {
	if r.Res.Cycles == 0 {
		return 0
	}
	bytes := float64(r.Res.Log.SizeBits()) / 8
	seconds := float64(r.Res.Cycles) / (clockGHz * 1e9)
	return bytes / seconds / 1e6
}

// TRAQAverage returns the mean TRAQ occupancy across cores.
func (r *Run) TRAQAverage() float64 {
	var sum, samples uint64
	for _, st := range r.Res.RecStats {
		sum += st.TRAQOccupancySum
		samples += st.TRAQSamples
	}
	if samples == 0 {
		return 0
	}
	return float64(sum) / float64(samples)
}

// TRAQHistogram returns the occupancy distribution (bins of 10
// entries) as fractions of all samples.
func (r *Run) TRAQHistogram() []float64 {
	var hist [20]uint64
	var total uint64
	for _, st := range r.Res.RecStats {
		for i, v := range st.TRAQOccupancyHist {
			hist[i] += v
			total += v
		}
	}
	out := make([]float64, len(hist))
	if total == 0 {
		return out
	}
	for i, v := range hist {
		out[i] = float64(v) / float64(total)
	}
	return out
}
