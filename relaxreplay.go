// Package relaxreplay is a full-system reproduction of RelaxReplay
// (Honarmand & Torrellas, ASPLOS 2014): hardware-assisted memory race
// recording and deterministic replay for relaxed-consistency
// multiprocessors.
//
// The package simulates a release-consistent multicore (out-of-order
// cores, MESI coherence on a slotted ring or with a directory),
// attaches a RelaxReplay memory race recorder to every core
// (RelaxReplay_Base or RelaxReplay_Opt), produces the paper's interval
// log, and deterministically replays it — verifying that the replay
// reproduces the recorded execution bit-for-bit.
//
// Quick start:
//
//	w := relaxreplay.MustKernel("fft", 8, 2)       // an 8-thread workload
//	rec, err := relaxreplay.Record(relaxreplay.DefaultConfig(), w)
//	rep, err := rec.Replay()                       // patch + replay + verify
//	fmt.Println(rec.LogSizeBits(), rep.Timing.Total())
//
// Programs are written in the package's mini RISC ISA via NewProgram,
// or taken from the bundled SPLASH-2-analog kernels (Kernels) and
// litmus tests (LitmusTests). The internal packages contain the full
// simulator; this package is the stable surface.
package relaxreplay

import (
	"bytes"
	"fmt"
	"io"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/core"
	"relaxreplay/internal/cpu"
	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/isa"
	"relaxreplay/internal/machine"
	"relaxreplay/internal/provenance"
	"relaxreplay/internal/replay"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/telemetry"
)

// Telemetry is the shared metrics registry and event tracer; see
// internal/telemetry. A nil *Telemetry disables all instrumentation at
// zero cost, and enabling it never changes simulation behaviour —
// recorded logs and replay outcomes are byte-identical either way.
type Telemetry = telemetry.Telemetry

// TelemetryOptions configures NewTelemetry.
type TelemetryOptions = telemetry.Options

// NewTelemetry builds a telemetry instance to place in Config.Telemetry.
func NewTelemetry(o TelemetryOptions) *Telemetry { return telemetry.New(o) }

// FaultInjector is a deterministic, seeded fault-injection engine; see
// internal/faultinject. A nil *FaultInjector never fires, so every
// fault-aware API accepts nil for normal operation, and the pipeline is
// byte-identical with faults disabled.
type FaultInjector = faultinject.Injector

// ParseFaults builds a fault injector from a "spec@seed" string
// ("default@1", "log.bitflip,ic.drop@7", "" or "none" for disabled).
// This is the parser behind every command's -faults flag.
func ParseFaults(spec string) (*FaultInjector, error) { return faultinject.Parse(spec) }

// Variant selects the recorder design (paper §3.2).
type Variant int

const (
	// Base is RelaxReplay_Base: no Snoop Table; any access whose
	// perform and counting events fall in different intervals is
	// logged as reordered.
	Base Variant = iota
	// Opt is RelaxReplay_Opt: the Snoop Table proves most
	// cross-interval accesses unobserved, shrinking the log.
	Opt
)

func (v Variant) String() string {
	if v == Opt {
		return "opt"
	}
	return "base"
}

// MemoryModel selects the consistency model the simulated cores
// implement. RelaxReplay records any of them (the paper's central
// claim); the paper's evaluation uses RC.
type MemoryModel int

const (
	// RC is release consistency (the paper's target).
	RC MemoryModel = iota
	// TSO is total store ordering (the model earlier recorders like
	// CoreRacer and RTR support).
	TSO
	// SC is sequential consistency (what conventional chunk recorders
	// assume).
	SC
)

func (m MemoryModel) String() string {
	switch m {
	case TSO:
		return "tso"
	case SC:
		return "sc"
	}
	return "rc"
}

// Ordering selects the interval-ordering mechanism paired with
// RelaxReplay's event tracking (paper §3.6: any chunk-ordering scheme
// composes with it).
type Ordering int

const (
	// QuickRec orders intervals by a globally-consistent physical
	// timestamp (the paper's evaluated pairing).
	QuickRec Ordering = iota
	// Lamport orders intervals by scalar logical clocks piggybacked on
	// coherence messages (Intel MRR / Cyrus style).
	Lamport
)

// Protocol selects the coherence protocol (paper §4.3).
type Protocol int

const (
	// Snoopy broadcasts every transaction on the ring (the paper's
	// evaluation configuration).
	Snoopy Protocol = iota
	// Directory keeps exact sharer state at the L2 home and sends
	// targeted invalidations.
	Directory
)

// Config selects the machine and recorder parameters. The zero value
// is not valid; start from DefaultConfig.
type Config struct {
	// Cores is the number of simulated cores (paper default: 8).
	Cores int
	// Variant selects RelaxReplay_Base or RelaxReplay_Opt.
	Variant Variant
	// MaxIntervalInstrs bounds interval size in instructions; 0 means
	// unbounded (the paper's INF configuration).
	MaxIntervalInstrs uint64
	// Protocol selects snoopy or directory coherence.
	Protocol Protocol
	// Ordering selects the interval orderer (QuickRec or Lamport).
	Ordering Ordering
	// Memory selects the consistency model of the simulated cores
	// (RC, TSO or SC).
	Memory MemoryModel
	// MaxCycles aborts runaway (deadlocked) workloads with a
	// *machine.StallError. The simulator ticks every cycle, so a
	// deadlocked workload spends the whole budget before it reports:
	// at the 500M default that takes minutes of host time. Lower it
	// when a stall is a plausible outcome.
	MaxCycles uint64

	// Hardware geometry (paper Table 1 defaults; exposed for the
	// ablation studies).
	TRAQSize          int
	SnoopTableArrays  int
	SnoopTableEntries int
	SignatureBits     int

	// Telemetry, when non-nil, instruments the run: counters and
	// histograms in the registry, plus (when tracing is enabled) a
	// Chrome trace_event timeline. nil means zero overhead.
	Telemetry *Telemetry

	// Faults, when non-nil, injects the enabled fault points into the
	// recording machine (ic.delay / ic.drop on the interconnect) and
	// the recording session (flush.crash at finalize). Faults make a
	// run fail loudly (e.g. *machine.StallError surfaced from Record)
	// or produce an incomplete log — never silently wrong output. nil
	// keeps the simulation fully deterministic.
	Faults *FaultInjector

	// Provenance, when non-nil, captures per-interval provenance during
	// recording (why each interval terminated, conflict addresses and
	// remote cores, reorder instants, queue occupancy) as a sideband on
	// the log. It observes only: the interval log is byte-identical with
	// or without it, and nil costs nothing on the recording hot path.
	// The sideband is persisted by WriteLog and read back by every
	// decode path; rrtrace and divergence forensics consume it.
	Provenance *ProvenanceCollector
}

// DefaultConfig returns the paper's default setup: 8 cores, snoopy
// MESI ring, RelaxReplay_Opt, 4K-instruction maximum intervals.
func DefaultConfig() Config {
	r := core.DefaultConfig(core.Opt)
	return Config{
		Cores:             8,
		Variant:           Opt,
		MaxIntervalInstrs: r.MaxIntervalInstrs,
		Protocol:          Snoopy,
		MaxCycles:         500_000_000,
		TRAQSize:          r.TRAQSize,
		SnoopTableArrays:  r.SnoopArrays,
		SnoopTableEntries: r.SnoopEntries,
		SignatureBits:     r.SigBits,
	}
}

func (c Config) machineConfig() machine.Config {
	m := machine.DefaultConfig(c.Cores)
	if c.Protocol == Directory {
		m.Mem.Protocol = coherence.Directory
	}
	switch c.Memory {
	case TSO:
		m.CPU.Model = cpu.TSO
	case SC:
		m.CPU.Model = cpu.SC
	}
	if c.MaxCycles > 0 {
		m.MaxCycles = c.MaxCycles
	}
	m.Telemetry = c.Telemetry
	m.Faults = c.Faults
	return m
}

// Validate checks the configuration without running anything: the core
// count must be positive and the derived recorder geometry structurally
// sound (TRAQ and NMI capacities at least 1, non-negative buffer and
// signature sizes — see internal/core.Config.Validate). Record calls
// it, so an invalid Config fails fast with a descriptive error instead
// of panicking mid-simulation.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("relaxreplay: config needs Cores > 0 (start from DefaultConfig)")
	}
	return c.recorderConfig().Validate()
}

func (c Config) recorderConfig() core.Config {
	v := core.Base
	if c.Variant == Opt {
		v = core.Opt
	}
	r := core.DefaultConfig(v)
	r.MaxIntervalInstrs = c.MaxIntervalInstrs
	if c.Ordering == Lamport {
		r.Ordering = core.OrderingLamport
	}
	// 0 means "use the paper default"; negative values flow through so
	// Validate reports them instead of silently falling back.
	if c.TRAQSize != 0 {
		r.TRAQSize = c.TRAQSize
	}
	if c.SnoopTableArrays != 0 {
		r.SnoopArrays = c.SnoopTableArrays
	}
	if c.SnoopTableEntries != 0 {
		r.SnoopEntries = c.SnoopTableEntries
	}
	if c.SignatureBits != 0 {
		r.SigBits = c.SignatureBits
	}
	r.Telemetry = c.Telemetry
	r.Faults = c.Faults
	r.Provenance = c.Provenance
	return r
}

// ProvenanceCollector gathers the per-interval provenance sideband
// during recording; see internal/provenance. Place one in
// Config.Provenance to enable capture. A nil collector disables
// capture at zero cost.
type ProvenanceCollector = provenance.Collector

// NewProvenanceCollector builds a collector for Config.Provenance.
func NewProvenanceCollector() *ProvenanceCollector { return provenance.NewCollector() }

// CoreProvenance is one core's captured provenance stream.
type CoreProvenance = provenance.CoreProvenance

// ProvenanceRecord is the provenance of one recorded interval: its
// termination cause, conflict address and remote core, reorder
// instants, and queue occupancy at termination.
type ProvenanceRecord = provenance.Record

// Program is a fully-built instruction sequence for one hardware thread.
type Program = isa.Program

// ProgramBuilder assembles Programs with symbolic labels; see the
// methods of isa.Builder (Ld, St, AmoAdd, Beq, ...).
type ProgramBuilder = isa.Builder

// NewProgram returns a builder for a new program.
func NewProgram(name string) *ProgramBuilder { return isa.NewBuilder(name) }

// Workload is a multithreaded program plus its environment: one
// program per core, optional recorded-input streams, initial memory.
type Workload struct {
	Name    string
	Progs   []Program
	Inputs  [][]uint64
	InitMem map[uint64]uint64
}

// Log is a RelaxReplay interval log; see internal/replaylog for the
// entry types.
type Log = replaylog.Log

// Recording is the outcome of recording a workload.
type Recording struct {
	cfg Config
	w   Workload
	res *core.Result
}

// Record runs the workload on the simulated multicore with a
// RelaxReplay recorder on every core and returns the recording.
func Record(cfg Config, w Workload) (*Recording, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(w.Progs) != cfg.Cores {
		return nil, fmt.Errorf("relaxreplay: workload has %d programs for %d cores", len(w.Progs), cfg.Cores)
	}
	res, err := core.Record(cfg.machineConfig(), cfg.recorderConfig(), core.Workload{
		Name: w.Name, Progs: w.Progs, Inputs: w.Inputs, InitMem: w.InitMem,
	})
	if err != nil {
		return nil, err
	}
	return &Recording{cfg: cfg, w: w, res: res}, nil
}

// Log returns the raw (unpatched) interval log.
func (r *Recording) Log() *Log { return r.res.Log }

// PatchedLog returns the log after the off-line patching pass (paper
// §3.3.2), ready for replay.
func (r *Recording) PatchedLog() (*Log, error) { return r.res.Log.Patch() }

// Cycles returns the parallel recording time in cycles.
func (r *Recording) Cycles() uint64 { return r.res.Cycles }

// LogSizeBits returns the uncompressed log size in bits (the paper's
// Figure 11 metric).
func (r *Recording) LogSizeBits() int { return r.res.Log.SizeBits() }

// Instructions returns the total retired instruction count.
func (r *Recording) Instructions() uint64 {
	var n uint64
	for _, s := range r.res.CoreStats {
		n += s.Retired
	}
	return n
}

// ReorderedAccesses returns how many memory accesses were logged as
// reordered (the paper's Figure 9 metric).
func (r *Recording) ReorderedAccesses() uint64 {
	var n uint64
	for _, s := range r.res.RecStats {
		n += s.ReorderedLoads + s.ReorderedStores + s.ReorderedAtomics
	}
	return n
}

// FinalMemory returns the recorded execution's final memory image
// (non-zero words).
func (r *Recording) FinalMemory() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(r.res.FinalMemory))
	for k, v := range r.res.FinalMemory {
		out[k] = v
	}
	return out
}

// Provenance returns the captured per-interval provenance sideband,
// or nil when the recording ran without a Config.Provenance collector.
func (r *Recording) Provenance() []CoreProvenance { return r.res.Log.Provenance }

// WriteLog serializes the raw log (with the recorded input streams and
// any provenance sideband) to w in log format v3: CRC32C-framed,
// delta/varint group frames with a flate stage, plus a segment index
// footer that lets OpenIndexed seek individual intervals without a
// full scan. ReadLog and ReadLogRobust also accept the older v1 and
// v2 formats.
func (r *Recording) WriteLog(w io.Writer) error { return replaylog.EncodeV3(w, r.res.Log) }

// WriteLogWith is WriteLog under fault injection: the encoder consults
// inj's log.dupframe point, and the encoded bytes pass through
// inj.Corrupt (bit flips, truncation, short writes) before reaching w.
// It returns descriptions of the corruptions applied, so callers can
// report what was done to the bytes. A nil injector is exactly
// WriteLog.
func (r *Recording) WriteLogWith(w io.Writer, inj *FaultInjector) ([]string, error) {
	var buf bytes.Buffer
	if err := replaylog.EncodeV3With(&buf, r.res.Log, inj); err != nil {
		return nil, err
	}
	data, applied := inj.Corrupt(buf.Bytes())
	_, err := w.Write(data)
	return applied, err
}

// ReadLog deserializes a log written by WriteLog, decoding a v3 log's
// per-core streams concurrently. It is strict: any corruption (bad
// checksum, torn frame, duplicated frame) fails with an error matching
// ErrCorruptFrame or ErrTruncated. Use ReadLogRobust to salvage what a
// damaged log still holds.
func ReadLog(rd io.Reader) (*Log, error) { return replaylog.Decode(rd) }

// CorruptionReport describes everything the robust decoder had to skip,
// drop or infer; see internal/replaylog. Clean() reports an intact log.
type CorruptionReport = replaylog.CorruptionReport

// Typed sentinel errors for log damage: errors.Is-matchable from any
// error returned by the strict decode path or CorruptionReport.Err.
var (
	// ErrCorruptFrame marks logs with damaged or lost frames.
	ErrCorruptFrame = replaylog.ErrCorruptFrame
	// ErrTruncated marks logs that end before their declared content.
	ErrTruncated = replaylog.ErrTruncated
)

// ReadLogRobust deserializes as much of a (possibly damaged) log as
// survives: corrupt frames are skipped with the decoder resyncing on
// the next frame marker, and everything skipped, dropped or inferred is
// itemized in the report. The returned log holds the intact frames
// only; the error is non-nil solely when nothing decodable remains.
// A v3 log's per-core streams decode concurrently; the log and report
// do not depend on how many goroutines ran.
func ReadLogRobust(rd io.Reader) (*Log, *CorruptionReport, error) {
	return replaylog.DecodeParallel(rd)
}

// WriteSalvagedLog re-encodes a log — typically the survivor returned
// by ReadLogRobust — as a clean v3 file: the repair path of rrlog
// -repair, which turns a damaged v1, v2 or v3 log into a clean,
// indexed one in one pass.
func WriteSalvagedLog(w io.Writer, l *Log) error { return replaylog.EncodeV3(w, l) }

// ReplayResult is the outcome of a verified deterministic replay.
type ReplayResult struct {
	// Timing is the modeled sequential replay time (Figure 13).
	Timing ReplayTiming
	// Intervals is the number of intervals replayed.
	Intervals int
	// FinalMemory is the replayed memory image (equal to the
	// recording's, or Replay would have failed).
	FinalMemory map[uint64]uint64
	// Degradations lists the cores abandoned mid-replay. It is only
	// ever non-empty on the graceful-degradation path
	// (ReplayLogPartialWith); the strict paths fail instead.
	Degradations []Degradation
}

// Degradation records one core abandoned by a partial replay: where
// its stream stopped matching and why.
type Degradation = replay.Degradation

// DivergedError is the typed failure of a strict replay whose
// execution stopped matching the log (errors.As-matchable as
// *DivergedError). Interval -1 means a core ended before HALT.
type DivergedError = replay.ErrDiverged

// DivergenceReport is the structured forensic record of one replay
// divergence or degradation: the mismatch's expected and actual sides,
// the context window of preceding intervals across cores, and (when
// the log carries a provenance sideband) why the diverged interval
// terminated during recording. Serialize with its JSON method.
type DivergenceReport = replay.DivergenceReport

// DivergenceForensics builds one DivergenceReport per degradation of a
// partial replay against the log it ran on (patching it first if
// needed, as ReplayLogPartialWith did). This is the report rrreplay
// -forensics writes.
func DivergenceForensics(log *Log, degs []Degradation) []*DivergenceReport {
	patched := log
	if !log.Patched {
		if p, _, err := log.PatchPartial(); err == nil {
			patched = p
		}
	}
	return replay.DivergenceReports(patched, degs, replay.ForensicsOptions{})
}

// DamageForensics synthesizes a DivergenceReport for log damage with
// no replay-side divergence to point at (dropped frames, unplaceable
// stores): replay stayed on its surviving streams, so the damage
// summary itself is the forensic record.
func DamageForensics(detail string) *DivergenceReport { return replay.DamageReport(detail) }

// StalledError is the typed failure of a replay whose watchdog step
// budget ran out; its Report pins down where every core was.
type StalledError = replay.ErrStalled

// ReplayTiming is the modeled user/OS cycle breakdown.
type ReplayTiming = replay.Timing

// Replay patches the log, replays it sequentially in the recorded
// interval order, and verifies the replayed execution against the
// recording (every register, every memory word, every instruction
// count). An error means nondeterminism — the condition RnR exists to
// rule out.
func (r *Recording) Replay() (*ReplayResult, error) {
	cfg := replay.DefaultConfig()
	cfg.Telemetry = r.cfg.Telemetry
	rep, err := r.res.Replay(cfg, r.w.Progs, r.w.InitMem)
	if err != nil {
		return nil, err
	}
	return &ReplayResult{Timing: rep.Timing, Intervals: rep.Intervals, FinalMemory: rep.FinalMemory}, nil
}

// ReplayLog replays an externally-loaded (possibly unpatched) log
// against the workload that was recorded. It cannot verify against
// the original machine state (that lives in the Recording); it returns
// the replayed final memory for the caller to inspect.
func ReplayLog(log *Log, w Workload) (*ReplayResult, error) {
	return ReplayLogWith(log, w, nil)
}

// ReplayLogWith is ReplayLog with telemetry attached: the replayer's
// counters and trace events land in tel (which may be nil).
func ReplayLogWith(log *Log, w Workload, tel *Telemetry) (*ReplayResult, error) {
	return replayLog(log, w, tel, false)
}

// ReplayLogPartialWith replays a possibly damaged log with graceful
// degradation: the log is patched tolerantly (stores whose target
// intervals were lost are dropped), a core that stops matching its
// stream is abandoned and itemized in Degradations instead of failing
// the run, and the watchdog converts a replay hang into a typed
// *StalledError. Use it on the output of ReadLogRobust; the result's
// final state is authoritative only for undegraded cores.
func ReplayLogPartialWith(log *Log, w Workload, tel *Telemetry) (*ReplayResult, error) {
	return replayLog(log, w, tel, true)
}

// replayLog patches log unless it already is (tolerantly when partial)
// and replays it with the default CPI, abandoning diverging cores when
// partial.
func replayLog(log *Log, w Workload, tel *Telemetry, partial bool) (*ReplayResult, error) {
	patched := log
	if !log.Patched {
		var err error
		if partial {
			patched, _, err = log.PatchPartial()
		} else {
			patched, err = log.Patch()
		}
		if err != nil {
			return nil, err
		}
	}
	cfg := replay.DefaultConfig()
	cfg.Telemetry = tel
	cfg.AllowPartial = partial
	rp, err := replay.New(cfg, patched, w.Progs, w.InitMem, nil)
	if err != nil {
		return nil, err
	}
	rep, err := rp.Run()
	if err != nil {
		return nil, err
	}
	return &ReplayResult{Timing: rep.Timing, Intervals: rep.Intervals,
		FinalMemory: rep.FinalMemory, Degradations: rep.Degradations}, nil
}

// ParallelReplayEstimate is the parallel-replay scheduling estimate
// computed from the recorded Cyrus-style dependence edges (an
// extension; paper §5.4 anticipates parallel replay when RelaxReplay
// is paired with a dependence-recording orderer).
type ParallelReplayEstimate struct {
	SequentialCycles uint64
	ParallelCycles   uint64
	Speedup          float64
}

// EstimateParallelReplay schedules the recorded intervals with one
// logical processor per recorded core, honoring same-core order and
// the recorded cross-core dependence edges, and reports the modeled
// makespan next to sequential replay time.
func (r *Recording) EstimateParallelReplay() ParallelReplayEstimate {
	est := replay.EstimateParallel(replay.DefaultConfig(), r.res.Log, r.res.CPI())
	return ParallelReplayEstimate{
		SequentialCycles: est.SequentialCycles,
		ParallelCycles:   est.ParallelCycles,
		Speedup:          est.Speedup(),
	}
}
