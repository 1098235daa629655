// Package replay implements deterministic replay of a RelaxReplay log
// (paper §3.5). It plays the role of the paper's OS module: it
// enforces the recorded total order of intervals, executes
// InorderBlock runs "natively" (here: with the functional ISA
// interpreter), injects recorded values for reordered loads, applies
// patched reordered stores, skips dummy entries, and injects the
// recorded input log — with only an instruction-count interrupt as
// assumed hardware support.
//
// The replayer is oblivious to whether the log came from
// RelaxReplay_Base or RelaxReplay_Opt; both use the same format.
//
//rrlint:deterministic
package replay

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"relaxreplay/internal/isa"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/telemetry"
)

// Config holds the replay timing model (see DESIGN.md: the paper
// replays on native hardware; we replay functionally and model the
// time). All costs are in recorded-machine cycles.
type Config struct {
	// IntervalSwitchCycles models the condition-variable handoff and
	// log-read work per interval.
	IntervalSwitchCycles uint64
	// BlockInterruptCycles models programming the instruction counter
	// and taking the end-of-block synchronous interrupt (plus the
	// pipeline flush it causes).
	BlockInterruptCycles uint64
	// EntryEmulationCycles models OS emulation of one reordered
	// load/store/dummy entry.
	EntryEmulationCycles uint64
	// UserCPIFactor scales the recorded per-core CPI for native replay
	// user time (replay has no inter-core contention).
	UserCPIFactor float64

	// Telemetry, when non-nil, receives the replayer's counters and
	// per-interval trace events on the modeled replay clock (metric
	// names under "replay.", trace pid telemetry.PidReplay). It
	// observes only: replay outcomes are identical with or without it.
	Telemetry *telemetry.Telemetry

	// AllowPartial switches on graceful degradation: a core that
	// diverges from its recorded stream (typically because the log lost
	// intervals to corruption) is abandoned at that interval and
	// recorded in Result.Degradations, instead of failing the whole
	// replay with ErrDiverged. The remaining cores replay as far as
	// their streams allow.
	AllowPartial bool

	// WatchdogSteps bounds total replay work (instructions executed
	// plus entries emulated). 0 means an automatic budget derived from
	// the log's own instruction count. When exceeded, Run returns
	// *ErrStalled with a StallReport instead of looping forever on a
	// log whose lengths lie.
	WatchdogSteps uint64
}

// DefaultConfig returns the calibrated timing model. The absolute
// per-entry OS costs are scaled to this reproduction's interval
// granularity (our intervals hold tens-to-hundreds of instructions
// where the paper's hold thousands; see EXPERIMENTS.md), preserving
// the paper's replay-time shape: Opt faster than Base, INF faster
// than 4K, OS time a third to a sixth of replay for Opt logs.
func DefaultConfig() Config {
	return Config{
		IntervalSwitchCycles: 40,
		BlockInterruptCycles: 30,
		EntryEmulationCycles: 20,
		UserCPIFactor:        0.7,
	}
}

// Timing summarizes modeled replay time (paper Figure 13's
// User/OS breakdown).
type Timing struct {
	UserCycles uint64
	OSCycles   uint64
}

// Total returns the modeled sequential replay time.
func (t Timing) Total() uint64 { return t.UserCycles + t.OSCycles }

// Result is the outcome of a replay run.
type Result struct {
	FinalMemory map[uint64]uint64
	FinalRegs   [][isa.NumRegs]uint64
	Instret     []uint64
	Intervals   int
	Timing      Timing

	// Degradations lists the cores abandoned mid-replay (only under
	// Config.AllowPartial). Empty means a full-fidelity replay.
	Degradations []Degradation
}

// Degraded reports whether any core was abandoned before completing
// its recorded stream.
func (r *Result) Degraded() bool { return len(r.Degradations) > 0 }

// replTelem holds the replayer's pre-resolved telemetry handles. The
// zero value (all nil) is the disabled state: every call is a no-op.
type replTelem struct {
	intervals     *telemetry.Counter
	blocks        *telemetry.Counter
	injectedLoads *telemetry.Counter
	dummies       *telemetry.Counter
	patchedStores *telemetry.Counter
	instrs        *telemetry.Counter
	degraded      *telemetry.Counter

	tracer   *telemetry.Tracer // nil unless tracing is on
	progress []string          // per-core counter track names
	done     []uint64          // intervals replayed per core
}

// newReplTelem resolves the replay-layer metric handles once at
// construction.
func newReplTelem(t *telemetry.Telemetry, cores int) replTelem {
	reg := t.Registry()
	if reg == nil {
		return replTelem{}
	}
	rt := replTelem{
		intervals:     reg.Counter("replay.intervals"),
		blocks:        reg.Counter("replay.blocks"),
		injectedLoads: reg.Counter("replay.injected_loads"),
		dummies:       reg.Counter("replay.dummies"),
		patchedStores: reg.Counter("replay.patched_stores"),
		instrs:        reg.Counter("replay.instrs"),
		degraded:      reg.Counter("replay.degraded"),
	}
	if tr := t.Tracer(); tr != nil && tr.Enabled() {
		rt.tracer = tr
		rt.done = make([]uint64, cores)
		tr.NameProcess(telemetry.PidReplay, "replayer")
		for c := 0; c < cores; c++ {
			rt.progress = append(rt.progress, fmt.Sprintf("replayed[c%d]", c))
			tr.NameThread(telemetry.PidReplay, c, fmt.Sprintf("core %d", c))
		}
	}
	return rt
}

// Replayer replays one patched log.
type Replayer struct {
	cfg     Config
	log     *replaylog.Log
	progs   []isa.Program
	threads []*isa.Thread
	mem     *isa.FlatMemory
	// cpi is the recorded cycles-per-instruction per core, used by the
	// timing model for native user time.
	cpi []float64

	// Watchdog state: steps counts instructions executed plus entries
	// emulated; exceeding budget aborts with *ErrStalled.
	steps  uint64
	budget uint64

	tel replTelem
}

// New builds a replayer for a patched log. progs must be the recorded
// programs (replay re-executes the same binaries); initMem the same
// initial memory; cpi the recorded per-core CPI (nil for a default of
// 1.0).
func New(cfg Config, log *replaylog.Log, progs []isa.Program, initMem map[uint64]uint64, cpi []float64) (*Replayer, error) {
	if !log.Patched {
		return nil, fmt.Errorf("replay: log must be patched first (replaylog.Log.Patch)")
	}
	if err := log.Validate(); err != nil {
		return nil, fmt.Errorf("replay: invalid log: %w", err)
	}
	if len(progs) != log.Cores {
		return nil, fmt.Errorf("replay: %d programs for %d cores", len(progs), log.Cores)
	}
	seen := make([]bool, log.Cores)
	for _, s := range log.Streams {
		if s.Core < 0 || s.Core >= log.Cores || seen[s.Core] {
			return nil, fmt.Errorf("replay: invalid log: stray or repeated stream for core %d of %d", s.Core, log.Cores)
		}
		seen[s.Core] = true
	}
	r := &Replayer{
		cfg: cfg, log: log, progs: progs, mem: isa.NewFlatMemory(),
		tel: newReplTelem(cfg.Telemetry, log.Cores),
	}
	for a, v := range initMem {
		r.mem.Store(a, v)
	}
	for c := 0; c < log.Cores; c++ {
		th := &isa.Thread{Prog: progs[c]}
		th.SetReg(isa.Reg(1), uint64(c))         // machine.RegCoreID convention
		th.SetReg(isa.Reg(2), uint64(log.Cores)) // machine.RegNumCores convention
		if c < len(log.Inputs) {
			th.Inputs = log.Inputs[c]
		}
		r.threads = append(r.threads, th)
		f := 1.0
		if cpi != nil {
			f = cpi[c]
		}
		r.cpi = append(r.cpi, f)
	}
	return r, nil
}

// intervalRef orders intervals across cores.
type intervalRef struct {
	stream int // index into Log.Streams
	core   int
	idx    int
	ts     uint64
}

// errStall is the internal signal that the step budget ran out inside
// an interval; Run converts it into *ErrStalled with a full report.
var errStall = fmt.Errorf("step budget exhausted")

// watchdogBudget derives the automatic step budget: generous slack
// over the work a truthful log demands, so only a lying log (or a
// genuine scheduler bug) can exhaust it.
func watchdogBudget(l *replaylog.Log) uint64 {
	work := l.Instructions()
	for _, s := range l.Streams {
		for i := range s.Intervals {
			work += uint64(len(s.Intervals[i].Entries))
		}
	}
	return 16*work + 4096
}

// Run replays the log sequentially in the recorded total order.
//
// Failure modes are typed: *ErrDiverged when execution stops matching
// the log (suppressed per-core into Result.Degradations under
// Config.AllowPartial), *ErrStalled when the watchdog step budget runs
// out. A degraded run still returns a Result — final state is then
// only authoritative for the cores that completed.
func (r *Replayer) Run() (*Result, error) {
	n := 0
	for _, s := range r.log.Streams {
		n += len(s.Intervals)
	}
	order := make([]intervalRef, 0, n)
	for si, s := range r.log.Streams {
		for i := range s.Intervals {
			order = append(order, intervalRef{stream: si, core: s.Core, idx: i, ts: s.Intervals[i].Timestamp})
		}
	}
	// New admits one stream per core, so (ts, core, idx) is unique and
	// an unstable sort gives the one order.
	slices.SortFunc(order, func(a, b intervalRef) int {
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		if c := cmp.Compare(a.core, b.core); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})

	r.steps = 0
	r.budget = r.cfg.WatchdogSteps
	if r.budget == 0 {
		r.budget = watchdogBudget(r.log)
	}
	done := make([]int, r.log.Cores)
	abandoned := make([]bool, r.log.Cores)

	res := &Result{Intervals: len(order)}
	var userCycles float64
	for _, ref := range order {
		if abandoned[ref.core] {
			continue
		}
		iv := &r.log.Streams[ref.stream].Intervals[ref.idx]
		// The modeled replay clock (cumulative OS+user cycles) is the
		// timeline the trace events are placed on.
		start := res.Timing.OSCycles + uint64(userCycles)
		res.Timing.OSCycles += r.cfg.IntervalSwitchCycles
		if err := r.replayInterval(ref.core, iv, res, &userCycles); err != nil {
			if errors.Is(err, errStall) {
				return nil, &ErrStalled{Report: r.stallReport(ref, iv, done)}
			}
			if r.cfg.AllowPartial {
				abandoned[ref.core] = true
				res.Degradations = append(res.Degradations,
					Degradation{Core: ref.core, Interval: ref.idx, Seq: iv.Seq, Cause: err})
				r.tel.degraded.Inc(ref.core)
				continue
			}
			return nil, &ErrDiverged{Core: ref.core, Interval: ref.idx, Seq: iv.Seq, Cause: err}
		}
		done[ref.core]++
		r.tel.intervals.Inc(ref.core)
		if tr := r.tel.tracer; tr != nil {
			end := res.Timing.OSCycles + uint64(userCycles)
			tr.Complete(telemetry.PidReplay, ref.core, "replay", "interval", start, end,
				map[string]any{"cisn": iv.CISN, "ts": iv.Timestamp, "entries": len(iv.Entries)})
			r.tel.done[ref.core]++
			tr.Counter(telemetry.PidReplay, ref.core, "replay", r.tel.progress[ref.core], end, r.tel.done[ref.core])
		}
	}
	res.Timing.UserCycles = uint64(userCycles)

	for c, th := range r.threads {
		if !th.Halted && !abandoned[c] {
			cause := fmt.Errorf("did not reach HALT (pc=%d)", th.PC)
			if !r.cfg.AllowPartial {
				return nil, &ErrDiverged{Core: c, Interval: -1, Cause: cause}
			}
			res.Degradations = append(res.Degradations, Degradation{Core: c, Interval: -1, Cause: cause})
			r.tel.degraded.Inc(c)
		}
		res.FinalRegs = append(res.FinalRegs, th.Regs)
		res.Instret = append(res.Instret, th.Instret)
	}
	res.FinalMemory = r.mem.Snapshot()
	return res, nil
}

// stallReport captures where every core was when the watchdog fired,
// including a telemetry snapshot when a registry is attached.
func (r *Replayer) stallReport(ref intervalRef, iv *replaylog.Interval, done []int) *StallReport {
	rep := &StallReport{
		Steps:    r.steps,
		Budget:   r.budget,
		Core:     ref.core,
		Interval: ref.idx,
		Seq:      iv.Seq,
		Done:     done,
	}
	for _, th := range r.threads {
		rep.Halted = append(rep.Halted, th.Halted)
	}
	if reg := r.cfg.Telemetry.Registry(); reg != nil {
		rep.Metrics = reg.Snapshot()
	}
	return rep
}

func (r *Replayer) replayInterval(core int, iv *replaylog.Interval, res *Result, userCycles *float64) error {
	th := r.threads[core]
	for _, e := range iv.Entries {
		if e.Type != replaylog.InorderBlock {
			if r.steps++; r.steps > r.budget {
				return errStall
			}
		}
		switch e.Type {
		case replaylog.InorderBlock:
			// The OS programs the instruction counter and runs the
			// block natively until the synchronous interrupt.
			res.Timing.OSCycles += r.cfg.BlockInterruptCycles
			*userCycles += float64(e.Size) * r.cpi[core] * r.cfg.UserCPIFactor
			r.tel.blocks.Inc(core)
			r.tel.instrs.Add(core, uint64(e.Size))
			if err := r.runBlock(th, e.Size); err != nil {
				return err
			}
		case replaylog.ReorderedLoad:
			// Inject the recorded value into the destination register
			// of the load (or atomic) and advance the PC.
			res.Timing.OSCycles += r.cfg.EntryEmulationCycles
			ins, err := r.instrAt(th)
			if err != nil {
				return err
			}
			if !ins.IsLoad() {
				return mismatch(
					"a load instruction (ReorderedLoad value injection)",
					fmt.Sprintf("%v", ins),
					"ReorderedLoad entry at non-load instruction %v", ins)
			}
			th.SetReg(ins.Rd, e.Value)
			th.PC++
			th.Instret++
			r.tel.injectedLoads.Inc(core)
		case replaylog.Dummy:
			// The store already executed in its perform interval.
			res.Timing.OSCycles += r.cfg.EntryEmulationCycles
			ins, err := r.instrAt(th)
			if err != nil {
				return err
			}
			if !ins.IsStore() {
				return mismatch(
					"a store instruction (performed earlier; skipped here)",
					fmt.Sprintf("%v", ins),
					"Dummy entry at non-store instruction %v", ins)
			}
			th.PC++
			th.Instret++
			r.tel.dummies.Inc(core)
		case replaylog.PatchedStore:
			// Performed here during recording; apply without touching
			// the program counter.
			res.Timing.OSCycles += r.cfg.EntryEmulationCycles
			r.mem.Store(e.Addr, e.Value)
			r.tel.patchedStores.Inc(core)
		default:
			return mismatch(
				"a patched-log entry (block, reordered load, dummy, patched store)",
				fmt.Sprintf("%v entry", e.Type),
				"unexpected entry type %v in patched log", e.Type)
		}
	}
	return nil
}

// runBlock runs an InorderBlock of size instructions with one StepN
// call capped at the remaining step budget. Accounting is per
// instruction: each one executed is a step, and so is the step that
// finds the budget spent, the thread already halted, or the
// instruction failing, so a stall always reports budget+1 steps.
func (r *Replayer) runBlock(th *isa.Thread, size uint32) error {
	run := min(uint64(size), r.budget-r.steps)
	n, err := th.StepN(r.mem, run)
	r.steps += n
	switch {
	case err != nil:
		r.steps++
		return err
	case n < run:
		r.steps++
		return mismatch(
			fmt.Sprintf("%d more in-order instruction(s) in this block", uint64(size)-n),
			"program already at HALT",
			"block overruns HALT after %d of %d instructions", n, size)
	case run < uint64(size):
		r.steps++
		return errStall
	}
	return nil
}

func (r *Replayer) instrAt(th *isa.Thread) (isa.Instr, error) {
	if th.Halted {
		return isa.Instr{}, fmt.Errorf("entry after HALT")
	}
	if th.PC < 0 || th.PC >= len(th.Prog.Code) {
		return isa.Instr{}, fmt.Errorf("PC %d out of range", th.PC)
	}
	return th.Prog.Code[th.PC], nil
}
