// Package cpu models the out-of-order superscalar cores of the
// simulated multicore (paper Table 1: 4-issue, 176-entry ROB, 128-entry
// load/store queue, 2 load/store units) executing the release-consistent
// (RC) memory model.
//
// The core dispatches in order along the predicted path (2-bit branch
// predictor, real wrong-path dispatch with squash on mispredict),
// issues out of order through a dataflow wakeup network, performs loads
// as soon as their address and ordering constraints allow, retires in
// order, and drains retired stores from a write buffer that completes
// out of order — so both load-load, load-store and store-store
// reordering occur, as RC permits.
//
// RC ordering rules implemented:
//   - FENCE: younger memory operations do not issue until every older
//     memory operation has performed.
//   - Acquire loads: younger memory operations do not perform before
//     the acquire performs.
//   - Release stores: do not merge with memory until every older
//     memory operation has performed.
//   - Atomics (AMO/CAS): execute non-speculatively at the ROB head
//     with acquire+release semantics.
//   - Per-address ordering (coherence): same-address accesses from one
//     core perform in program order; store-to-load forwarding serves a
//     load from the youngest older store to the same address.
//
// The memory race recorder observes the core through Hooks; the core
// itself knows nothing about recording.
//
//rrlint:deterministic
package cpu

import (
	"relaxreplay/internal/coherence"
	"relaxreplay/internal/isa"
	"relaxreplay/internal/telemetry"
)

// MemModel selects the memory consistency model the core implements.
// RelaxReplay records correctly under any of them (the paper's
// central claim); the default — and the paper's evaluation target —
// is release consistency.
type MemModel uint8

const (
	// RC is release consistency: loads and stores reorder freely
	// except across acquire/release/fence and same-address pairs.
	RC MemModel = iota
	// TSO is total store ordering: loads bind in program order and
	// stores drain FIFO one at a time, but loads still bypass pending
	// stores (the store buffer is the only visible reordering).
	TSO
	// SC is sequential consistency: every memory operation waits for
	// all older memory operations to perform.
	SC
)

func (m MemModel) String() string {
	switch m {
	case TSO:
		return "tso"
	case SC:
		return "sc"
	}
	return "rc"
}

// Config holds the core parameters (defaults per paper Table 1).
type Config struct {
	Model      MemModel
	ROBSize    int
	IssueWidth int
	LdStUnits  int
	LSQSize    int
	WBSize     int // write buffer entries

	ALULat            uint64
	MulLat            uint64
	MispredictPenalty uint64
	PredictorBits     int // 2-bit counter table of 1<<bits entries

	// Telemetry, when non-nil, receives the core's counters and the
	// ROB occupancy histogram (metric names under "cpu."). It observes
	// only: simulation behaviour is identical with or without it.
	Telemetry *telemetry.Telemetry
}

// DefaultConfig returns the paper's core configuration.
func DefaultConfig() Config {
	return Config{
		ROBSize:           176,
		IssueWidth:        4,
		LdStUnits:         2,
		LSQSize:           128,
		WBSize:            16,
		ALULat:            1,
		MulLat:            3,
		MispredictPenalty: 6,
		PredictorBits:     10,
	}
}

// MemPort is the core's view of the memory hierarchy.
type MemPort interface {
	Submit(coherence.Request) bool
}

// Hooks let the memory race recorder observe the core. All hooks are
// optional.
type Hooks struct {
	// DispatchInstr is called for every instruction entering the ROB
	// (including wrong-path instructions that may later be squashed).
	// Returning false stalls dispatch this cycle (e.g. TRAQ full).
	DispatchInstr func(seq uint64, ins isa.Instr) bool
	// RetireInstr is called for every retired instruction, in program
	// order. The recorder uses it to gate counting of memory entries
	// and NMI filler entries on retirement.
	RetireInstr func(seq uint64, isMem bool)
	// LocalPerform is called when a load binds its value by
	// store-to-load forwarding (no coherence perform event exists).
	LocalPerform func(seq uint64, addr uint64, value uint64)
	// Squash is called when all instructions with sequence >= fromSeq
	// are squashed (branch mispredict).
	Squash func(fromSeq uint64)
	// Halted is called once when the core retires HALT; trailingInstrs
	// is the number of instructions (including HALT) retired since the
	// last memory-access instruction.
	Halted func(trailingInstrs int)
}

// Stats aggregates per-core counters.
type Stats struct {
	Cycles         uint64
	Retired        uint64
	MemRetired     uint64
	LoadsRetired   uint64
	StoresRetired  uint64
	AtomicsRetired uint64

	// OOOLoads/OOOStores count retired memory instructions that
	// performed while an older memory instruction was still pending
	// (paper Figure 1).
	OOOLoads  uint64
	OOOStores uint64

	Mispredicts     uint64
	BranchesRetired uint64
	SquashedUops    uint64
	Forwards        uint64

	DispatchStallROB  uint64
	DispatchStallLSQ  uint64
	DispatchStallTRAQ uint64
	RetireStallWB     uint64
}

// Sub returns the counter-wise difference s - o. Both snapshots must
// come from the same core with s taken later, so every field of s is
// >= the corresponding field of o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Cycles:            s.Cycles - o.Cycles,
		Retired:           s.Retired - o.Retired,
		MemRetired:        s.MemRetired - o.MemRetired,
		LoadsRetired:      s.LoadsRetired - o.LoadsRetired,
		StoresRetired:     s.StoresRetired - o.StoresRetired,
		AtomicsRetired:    s.AtomicsRetired - o.AtomicsRetired,
		OOOLoads:          s.OOOLoads - o.OOOLoads,
		OOOStores:         s.OOOStores - o.OOOStores,
		Mispredicts:       s.Mispredicts - o.Mispredicts,
		BranchesRetired:   s.BranchesRetired - o.BranchesRetired,
		SquashedUops:      s.SquashedUops - o.SquashedUops,
		Forwards:          s.Forwards - o.Forwards,
		DispatchStallROB:  s.DispatchStallROB - o.DispatchStallROB,
		DispatchStallLSQ:  s.DispatchStallLSQ - o.DispatchStallLSQ,
		DispatchStallTRAQ: s.DispatchStallTRAQ - o.DispatchStallTRAQ,
		RetireStallWB:     s.RetireStallWB - o.RetireStallWB,
	}
}

// AddScaled adds n copies of the per-cycle delta d to s. The machine's
// idle-cycle fast-forward uses it to account skipped cycles: during a
// provably idle stretch each per-cycle counter (cycles, stall tallies)
// advances by the same amount every cycle, so n ticks contribute
// exactly n deltas.
func (s *Stats) AddScaled(d Stats, n uint64) {
	s.Cycles += d.Cycles * n
	s.Retired += d.Retired * n
	s.MemRetired += d.MemRetired * n
	s.LoadsRetired += d.LoadsRetired * n
	s.StoresRetired += d.StoresRetired * n
	s.AtomicsRetired += d.AtomicsRetired * n
	s.OOOLoads += d.OOOLoads * n
	s.OOOStores += d.OOOStores * n
	s.Mispredicts += d.Mispredicts * n
	s.BranchesRetired += d.BranchesRetired * n
	s.SquashedUops += d.SquashedUops * n
	s.Forwards += d.Forwards * n
	s.DispatchStallROB += d.DispatchStallROB * n
	s.DispatchStallLSQ += d.DispatchStallLSQ * n
	s.DispatchStallTRAQ += d.DispatchStallTRAQ * n
	s.RetireStallWB += d.RetireStallWB * n
}

type uopState uint8

const (
	uopWaiting uopState = iota // sources not ready
	uopReady                   // ready to issue
	uopIssued                  // executing / access outstanding
	uopDone                    // result available
)

// uop is one in-flight instruction.
type uop struct {
	seq uint64
	pc  int
	ins isa.Instr

	// Dataflow.
	srcOwner   [3]*uop // rs1, rs2, rd-as-source; nil = value present
	srcVal     [3]uint64
	pendingSrc int
	waiters    []*uop

	state  uopState
	val    uint64 // result: ALU value, load value, RMW old value
	doneAt uint64 // cycle the result becomes available

	addr      uint64
	addrKnown bool

	performed  bool
	oooPerform bool // performed while an older mem op was pending

	predictedTaken bool
	squashed       bool
	forwarded      bool
	wbIssued       bool // store submitted to memory from the write buffer
}

func (u *uop) isMem() bool { return u.ins.IsMem() }

// coreTelem holds the core's pre-resolved telemetry handles. The zero
// value (all nil) is the disabled state: every call is a no-op.
type coreTelem struct {
	cycles     *telemetry.Counter
	retired    *telemetry.Counter
	memRetired *telemetry.Counter
	issuedALU  *telemetry.Counter
	issuedMem  *telemetry.Counter
	mispredict *telemetry.Counter
	squashed   *telemetry.Counter
	forwards   *telemetry.Counter

	stallROB  *telemetry.Counter
	stallLSQ  *telemetry.Counter
	stallTRAQ *telemetry.Counter
	stallWB   *telemetry.Counter

	robOcc *telemetry.Histogram
	lsqOcc *telemetry.Histogram
}

// newCoreTelem resolves the cpu-layer metric handles once at core
// construction, keeping the hot path free of name lookups.
func newCoreTelem(t *telemetry.Telemetry) coreTelem {
	reg := t.Registry()
	if reg == nil {
		return coreTelem{}
	}
	return coreTelem{
		cycles:     reg.Counter("cpu.cycles"),
		retired:    reg.Counter("cpu.retired"),
		memRetired: reg.Counter("cpu.retired.mem"),
		issuedALU:  reg.Counter("cpu.issued.alu"),
		issuedMem:  reg.Counter("cpu.issued.mem"),
		mispredict: reg.Counter("cpu.mispredicts"),
		squashed:   reg.Counter("cpu.squashed_uops"),
		forwards:   reg.Counter("cpu.forwards"),
		stallROB:   reg.Counter("cpu.stall.dispatch_rob"),
		stallLSQ:   reg.Counter("cpu.stall.dispatch_lsq"),
		stallTRAQ:  reg.Counter("cpu.stall.dispatch_traq"),
		stallWB:    reg.Counter("cpu.stall.retire_wb"),
		robOcc:     reg.Histogram("cpu.rob_occupancy"),
		lsqOcc:     reg.Histogram("cpu.lsq_occupancy"),
	}
}
