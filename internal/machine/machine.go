// Package machine assembles the simulated multicore: out-of-order
// cores (package cpu) on top of the coherent memory hierarchy (package
// coherence), advanced in lockstep on a single global cycle clock. The
// global clock is also the globally-consistent timestamp source that
// the QuickRec-style interval orderer uses (paper §4.1).
//
//rrlint:deterministic
package machine

import (
	"fmt"
	"strings"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/cpu"
	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/isa"
	"relaxreplay/internal/telemetry"
)

// Register conventions for programs started by the machine.
const (
	// RegCoreID is preloaded with the core's id.
	RegCoreID = isa.Reg(1)
	// RegNumCores is preloaded with the number of cores.
	RegNumCores = isa.Reg(2)
)

// Config describes a machine.
type Config struct {
	Cores int
	CPU   cpu.Config
	Mem   coherence.Config

	// MaxCycles is the run's cycle budget: Run fails with *StallError
	// once it elapses without completion. Every cycle is ticked, so a
	// deadlocked machine (a spinlock never released, a coherence
	// message lost to fault injection) spends the whole budget before
	// it reports; at the 500M default that is minutes of host time
	// (DESIGN.md §15). Callers that expect stalls, like the chaos
	// matrix, derive a smaller budget from a clean run.
	MaxCycles uint64

	// Telemetry, when non-nil, is propagated to the CPU and memory
	// configurations and drives the machine's cycle-sampled trace
	// tracks (ROB/LSQ/MSHR occupancy, ring queue depth). It observes
	// only: simulation behaviour is identical with or without it.
	Telemetry *telemetry.Telemetry

	// Faults, when non-nil, is propagated to the memory system's
	// interconnect (ic.delay / ic.drop points). A dropped coherence
	// message typically surfaces as a *StallError from Run — that loud,
	// classifiable failure is the intended behaviour under fault
	// injection. Nil keeps the machine fully deterministic.
	Faults *faultinject.Injector
}

// DefaultConfig returns the paper's Table 1 machine with the given
// number of cores (the paper default is 8).
func DefaultConfig(cores int) Config {
	return Config{
		Cores:     cores,
		CPU:       cpu.DefaultConfig(),
		Mem:       coherence.DefaultConfig(cores),
		MaxCycles: 500_000_000,
	}
}

// Machine is one simulated multicore.
type Machine struct {
	cfg   Config
	Sys   *coherence.System
	Cores []*cpu.Core
	cycle uint64

	// PerformSink, when set, receives every memory-system perform
	// event after the owning core has processed it. The memory race
	// recorder uses it to stamp PISNs at the true perform time.
	PerformSink func(ev coherence.PerformEvent)

	// ExtraTick, when set, runs for every core right after that core's
	// pipeline tick. The recording session hangs the per-core recorder
	// tick here.
	ExtraTick func(core int, cycle uint64)

	samp sampler
}

// sampler drives the cycle-sampled telemetry counter tracks. The zero
// value (every == 0) is the disabled state. Track names are
// precomputed so the per-sample path does not format strings; they
// carry the core id (e.g. "rob[c3]") because Chrome keys counter
// tracks by (pid, name).
type sampler struct {
	every  uint64
	tracer *telemetry.Tracer

	rob, lsq, wb, mshr []string
}

func newSampler(t *telemetry.Telemetry, cores int) sampler {
	tr := t.Tracer()
	if tr == nil || !tr.Enabled() || t.SampleEvery() == 0 {
		return sampler{}
	}
	s := sampler{every: t.SampleEvery(), tracer: tr}
	for c := 0; c < cores; c++ {
		s.rob = append(s.rob, fmt.Sprintf("rob[c%d]", c))
		s.lsq = append(s.lsq, fmt.Sprintf("lsq[c%d]", c))
		s.wb = append(s.wb, fmt.Sprintf("wb[c%d]", c))
		s.mshr = append(s.mshr, fmt.Sprintf("mshr[c%d]", c))
	}
	tr.NameProcess(telemetry.PidRecord, "record machine")
	for c := 0; c < cores; c++ {
		tr.NameThread(telemetry.PidRecord, c, fmt.Sprintf("core %d", c))
	}
	return s
}

// New builds a machine running progs[i] on core i. hookFor, which may
// be nil, supplies the recorder's observation hooks for each core.
func New(cfg Config, progs []isa.Program, hookFor func(core int) cpu.Hooks) *Machine {
	if len(progs) != cfg.Cores {
		panic(fmt.Sprintf("machine: %d programs for %d cores", len(progs), cfg.Cores))
	}
	cfg.Mem.Cores = cfg.Cores
	if cfg.Telemetry != nil {
		cfg.CPU.Telemetry = cfg.Telemetry
		cfg.Mem.Telemetry = cfg.Telemetry
	}
	if cfg.Faults != nil {
		cfg.Mem.Faults = cfg.Faults
	}
	m := &Machine{cfg: cfg, Sys: coherence.New(cfg.Mem), samp: newSampler(cfg.Telemetry, cfg.Cores)}
	m.Sys.OnPerform = func(ev coherence.PerformEvent) {
		// Synchronous routing preserves the true intra-cycle order of
		// performs and snoops, which the recorder relies on.
		m.Cores[ev.Core].HandlePerform(ev)
		if m.PerformSink != nil {
			m.PerformSink(ev)
		}
	}
	m.Cores = make([]*cpu.Core, cfg.Cores)
	for i := range m.Cores {
		var hooks cpu.Hooks
		if hookFor != nil {
			hooks = hookFor(i)
		}
		m.Cores[i] = cpu.New(i, cfg.CPU, progs[i], m.Sys, hooks)
		m.Cores[i].SetReg(RegCoreID, uint64(i))
		m.Cores[i].SetReg(RegNumCores, uint64(cfg.Cores))
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Cycle returns the current global cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// InitMemory preloads memory words before the run.
func (m *Machine) InitMemory(words map[uint64]uint64) {
	for a, v := range words {
		m.Sys.InitWord(a, v)
	}
}

// SetInputs provides core's external input stream (consumed by IN).
func (m *Machine) SetInputs(core int, in []uint64) { m.Cores[core].SetInputs(in) }

// Step advances the machine one cycle: the memory system ticks, the
// cycle's completions reach their cores, then the cores tick in order.
func (m *Machine) Step() {
	m.cycle++
	m.Sys.Tick()
	for _, ev := range m.Sys.DrainCompletions() {
		m.Cores[ev.Core].HandleCompletion(ev)
	}
	for i, c := range m.Cores {
		c.Tick(m.cycle)
		if m.ExtraTick != nil {
			m.ExtraTick(i, m.cycle)
		}
	}
	if m.samp.every != 0 && m.cycle%m.samp.every == 0 {
		m.SampleTelemetry()
	}
}

// SampleTelemetry emits one point on every cycle-sampled trace track
// (ROB/LSQ/write-buffer/MSHR occupancy per core, ring queue depth).
// Step calls it every Telemetry.SampleEvery cycles; callers may invoke
// it directly to close the tracks at the exact end of a run. It is a
// no-op when tracing is disabled.
func (m *Machine) SampleTelemetry() {
	if m.samp.every == 0 {
		return
	}
	tr, cyc := m.samp.tracer, m.cycle
	for i, c := range m.Cores {
		rob, lsq, wb := c.Occupancy()
		tr.Counter(telemetry.PidRecord, i, "cpu", m.samp.rob[i], cyc, uint64(rob))
		tr.Counter(telemetry.PidRecord, i, "cpu", m.samp.lsq[i], cyc, uint64(lsq))
		tr.Counter(telemetry.PidRecord, i, "cpu", m.samp.wb[i], cyc, uint64(wb))
		tr.Counter(telemetry.PidRecord, i, "coherence", m.samp.mshr[i], cyc, uint64(m.Sys.MSHROccupancy(i)))
	}
	tr.Counter(telemetry.PidRecord, 0, "interconnect", "ring.queue", cyc, uint64(m.Sys.RingQueueDepth()))
	tr.Counter(telemetry.PidRecord, 0, "interconnect", "ring.hops", cyc, m.Sys.RingHops())
}

// FastForwardedCycles always returns 0: the run loop ticks every cycle
// and skips none. It stays only because the benchmark module's traced
// runs read it for their machine.ff_skip_frac metric; it goes when
// that metric does.
func (m *Machine) FastForwardedCycles() uint64 { return 0 }

// Done reports whether every core has halted and drained and the
// memory system is idle.
func (m *Machine) Done() bool {
	for _, c := range m.Cores {
		if !c.Quiesced() {
			return false
		}
	}
	return !m.Sys.Busy()
}

// StallError reports that the machine exceeded MaxCycles without
// completing — a deadlocked workload, or (under fault injection) a
// coherence transaction killed by a dropped ring message. Cores holds
// a per-core pipeline/stall snapshot naming the stuck core.
type StallError struct {
	Cycles uint64   // the MaxCycles budget that elapsed
	Cores  []string // per-core pipeline state and stall counters
}

func (e *StallError) Error() string {
	return fmt.Sprintf("machine: exceeded %d cycles (deadlock?): [%s]", e.Cycles, strings.Join(e.Cores, ", "))
}

// Run steps the machine to completion. It fails on a core error (e.g.
// input exhaustion) or with *StallError when MaxCycles elapse without
// completion, which almost always indicates a deadlocked workload
// (e.g. a spinlock never released).
//
// Run is RunWith with an empty Driver; the recording session layers
// its recorder hooks on the same loop (see Driver).
func (m *Machine) Run() error {
	return m.RunWith(Driver{})
}

// snapshotCores describes each core's pipeline state plus its final
// telemetry counters (retired and stall counts), so a deadlock report
// shows which core stopped making progress and what it stalled on.
func (m *Machine) snapshotCores() []string {
	out := make([]string, len(m.Cores))
	for i, c := range m.Cores {
		st := c.Stats
		out[i] = fmt.Sprintf("%s retired=%d mem=%d stalls[rob=%d lsq=%d traq=%d wb=%d]",
			c.String(), st.Retired, st.MemRetired,
			st.DispatchStallROB, st.DispatchStallLSQ, st.DispatchStallTRAQ, st.RetireStallWB)
	}
	return out
}

// FinalMemory returns the coherent memory image after Run.
func (m *Machine) FinalMemory() map[uint64]uint64 { return m.Sys.FinalMemory() }

// TotalRetired sums retired instructions over all cores.
func (m *Machine) TotalRetired() uint64 {
	var n uint64
	for _, c := range m.Cores {
		n += c.Stats.Retired
	}
	return n
}
