// Package core implements RelaxReplay's memory race recorder — the
// paper's primary contribution. One Recorder attaches to each core and
// observes it through the cpu.Hooks interface plus the memory system's
// perform/snoop events. Its centerpiece is the post-completion
// in-order counting step: every memory instruction flows through the
// Tracking Queue (TRAQ) in program order; at the TRAQ head its
// Performance Interval Sequence Number (PISN, stamped when the access
// performed) is compared with the Current Interval Sequence Number
// (CISN). Matching numbers — or, in RelaxReplay_Opt, an unchanged
// Snoop Table count — let the perform event be logically moved to the
// counting point and folded into an InorderBlock; otherwise the access
// is logged as reordered with enough state to replay it (paper §3.3).
//
//rrlint:deterministic
package core

import (
	"fmt"

	"relaxreplay/internal/bloom"
	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/isa"
	"relaxreplay/internal/provenance"
	"relaxreplay/internal/replaylog"
	"relaxreplay/internal/telemetry"
)

// Variant selects between the paper's two designs.
type Variant uint8

const (
	// Base has no Snoop Table: any access whose perform and counting
	// events fall in different intervals is logged as reordered.
	Base Variant = iota
	// Opt adds the Snoop Table, declaring such an access in order when
	// no conflicting transaction was observed in between.
	Opt
)

func (v Variant) String() string {
	if v == Opt {
		return "opt"
	}
	return "base"
}

// Config holds the recorder parameters (defaults per paper Table 1).
type Config struct {
	Variant Variant

	TRAQSize          int
	MaxIntervalInstrs uint64 // 0 = unbounded (the paper's INF)
	CountPerCycle     int    // TRAQ drain bandwidth
	NMICap            int    // NMI field capacity (4 bits -> 15)

	SnoopArrays  int // Snoop Table geometry (Opt only)
	SnoopEntries int

	// LogBufferBytes models the per-core log buffer (paper Table 1:
	// 8 cache lines); Stats.LogBufferFlushes counts write-backs of a
	// full buffer to memory.
	LogBufferBytes int

	SigArrays int // interval signature geometry
	SigBits   int
	SigSeed   uint64

	// Ordering selects the interval-ordering mechanism paired with
	// RelaxReplay's event tracking (paper §3.6, Figure 7).
	Ordering OrderingScheme

	// UnsafeDisablePinning turns off the same-address pinning
	// soundness fix (DESIGN.md §6) so tests can demonstrate the replay
	// divergence it prevents. Never set in real use.
	UnsafeDisablePinning bool

	// AssumeSC makes the recorder behave like a conventional SC
	// chunk-based recorder (paper §2.2): every access is counted as in
	// order, with no reorder detection at all. Such a log CANNOT
	// faithfully capture relaxed-consistency executions; it exists so
	// the motivation experiment can demonstrate the resulting replay
	// divergence.
	AssumeSC bool

	// Faults, when non-nil, arms the recorder-side fault points — today
	// flush.crash, which makes the session "crash" while flushing one
	// core's log at finalize, losing that stream's tail intervals. Nil
	// keeps recording fully deterministic.
	Faults *faultinject.Injector

	// Telemetry, when non-nil, receives the recorder's counters, the
	// chunk-size/NMI histograms and the interval-lifetime trace events
	// (metric names under "core.", trace category "core"). It observes
	// only: recorded logs are identical with or without it.
	Telemetry *telemetry.Telemetry

	// Provenance, when non-nil, captures the flight-recorder sideband:
	// per-interval termination causes, conflicting line/remote core,
	// reorder instants and occupancy at termination. Like Telemetry it
	// observes only — interval streams are byte-identical with or
	// without it — but the sideband rides into v3 log files.
	Provenance *provenance.Collector
}

// DefaultConfig returns the paper's Table 1 recorder configuration for
// the given variant with 4K-instruction maximum intervals.
func DefaultConfig(v Variant) Config {
	return Config{
		Variant:           v,
		TRAQSize:          176,
		MaxIntervalInstrs: 4096,
		CountPerCycle:     2,
		NMICap:            15,
		SnoopArrays:       2,
		SnoopEntries:      64,
		LogBufferBytes:    8 * 32,
		SigArrays:         bloom.DefaultArrays,
		SigBits:           bloom.DefaultBits,
		SigSeed:           0x5eed,
	}
}

// Validate checks the structural invariants the recorder depends on,
// returning a descriptive error for the first violation. NewRecorder
// and NewSession call it, so a bad Config surfaces as an error instead
// of a runtime panic deep in the pipeline (NMICap = 0, for example,
// used to crash Halted with an integer divide by zero and to wedge
// DispatchInstr's filler-spill loop).
func (c Config) Validate() error {
	switch {
	case c.TRAQSize < 1:
		return fmt.Errorf("core: config: TRAQSize = %d, need at least 1 TRAQ entry", c.TRAQSize)
	case c.CountPerCycle < 1:
		return fmt.Errorf("core: config: CountPerCycle = %d, need at least 1 (TRAQ would never drain)", c.CountPerCycle)
	case c.NMICap < 1:
		return fmt.Errorf("core: config: NMICap = %d, need at least 1 non-memory instruction per NMI field", c.NMICap)
	case c.LogBufferBytes < 0:
		return fmt.Errorf("core: config: LogBufferBytes = %d, must be non-negative", c.LogBufferBytes)
	case c.SigArrays < 1 || c.SigBits < 1:
		return fmt.Errorf("core: config: signature geometry %dx%d bits, need at least 1x1", c.SigArrays, c.SigBits)
	}
	if c.Variant == Opt && (c.SnoopArrays < 1 || c.SnoopEntries < 1) {
		return fmt.Errorf("core: config: Snoop Table geometry %dx%d, Opt needs at least 1x1",
			c.SnoopArrays, c.SnoopEntries)
	}
	return nil
}

// pendingPred is a dependence edge awaiting attachment to its interval.
type pendingPred struct {
	seq  uint64
	pred replaylog.Pred
}

// OrderingScheme names an interval orderer implementation.
type OrderingScheme uint8

const (
	// OrderingQuickRec orders intervals by a globally-consistent
	// physical timestamp (the paper's evaluated configuration).
	OrderingQuickRec OrderingScheme = iota
	// OrderingLamport orders intervals by piggybacked scalar logical
	// clocks (Intel MRR / Cyrus style).
	OrderingLamport
)

func (o OrderingScheme) String() string {
	if o == OrderingLamport {
		return "lamport"
	}
	return "quickrec"
}

type entryKind uint8

const (
	kindLoad entryKind = iota
	kindStore
	kindAtomic
	kindFiller
)

// traqEntry is one TRAQ slot (paper Figure 6(b)).
type traqEntry struct {
	seq  uint64
	kind entryKind
	nmi  int // non-memory instructions preceding this one
	// nmiSeqs are the sequence numbers of those instructions, kept so
	// that a squash of this entry can restore the survivors to the
	// pending list.
	nmiSeqs []uint64

	line uint64
	addr uint64

	loadVal  uint64
	storeVal uint64
	didWrite bool

	pisn      uint64
	performed bool
	snoopCnt  SnoopCount
	// pinned/pinISN forbid the RelaxReplay_Opt move for this entry
	// beyond interval pinISN: a younger same-address store performed
	// in interval pinISN while this access was still waiting to be
	// counted. If this entry were moved into an interval after
	// pinISN while that store is logged reordered (patched to the end
	// of pinISN), the store would overtake this access at replay.
	// See the "same-address pinning" note in DESIGN.md; this is a
	// soundness condition the paper does not discuss, found by
	// systematic replay verification.
	pinned bool
	pinISN uint64
}

// Stats aggregates recorder counters for the evaluation.
type Stats struct {
	Dispatched uint64 // instructions seen (including squashed)
	Counted    uint64 // instructions counted (retired path)
	MemCounted uint64 // memory instructions counted

	ReorderedLoads   uint64
	ReorderedStores  uint64
	ReorderedAtomics uint64
	OptMoves         uint64 // cross-interval moves proven safe by the Snoop Table
	BaseSameInterval uint64 // PISN == CISN at counting
	PinnedReorders   uint64 // moves forbidden by same-address pinning

	Intervals            uint64
	LogBufferFlushes     uint64
	ConflictTerminations uint64
	SizeTerminations     uint64
	InorderBlocks        uint64
	SnoopsObserved       uint64
	TRAQOccupancySum     uint64 // per-cycle sum, for the Figure 12 average
	TRAQSamples          uint64
	TRAQOccupancyHist    [20]uint64 // bins of 10 entries, Figure 12(b)
	TRAQPeak             int
	SquashedEntries      uint64
	DirtyEvictIncrements uint64
}

// Sub returns the counter-wise difference s - o. Both snapshots must
// come from the same recorder with s taken later. TRAQPeak, a running
// maximum rather than an accumulator, subtracts to zero across any
// stretch in which no entry was pushed.
func (s Stats) Sub(o Stats) Stats {
	d := Stats{
		Dispatched:           s.Dispatched - o.Dispatched,
		Counted:              s.Counted - o.Counted,
		MemCounted:           s.MemCounted - o.MemCounted,
		ReorderedLoads:       s.ReorderedLoads - o.ReorderedLoads,
		ReorderedStores:      s.ReorderedStores - o.ReorderedStores,
		ReorderedAtomics:     s.ReorderedAtomics - o.ReorderedAtomics,
		OptMoves:             s.OptMoves - o.OptMoves,
		BaseSameInterval:     s.BaseSameInterval - o.BaseSameInterval,
		PinnedReorders:       s.PinnedReorders - o.PinnedReorders,
		Intervals:            s.Intervals - o.Intervals,
		LogBufferFlushes:     s.LogBufferFlushes - o.LogBufferFlushes,
		ConflictTerminations: s.ConflictTerminations - o.ConflictTerminations,
		SizeTerminations:     s.SizeTerminations - o.SizeTerminations,
		InorderBlocks:        s.InorderBlocks - o.InorderBlocks,
		SnoopsObserved:       s.SnoopsObserved - o.SnoopsObserved,
		TRAQOccupancySum:     s.TRAQOccupancySum - o.TRAQOccupancySum,
		TRAQSamples:          s.TRAQSamples - o.TRAQSamples,
		TRAQPeak:             s.TRAQPeak - o.TRAQPeak,
		SquashedEntries:      s.SquashedEntries - o.SquashedEntries,
		DirtyEvictIncrements: s.DirtyEvictIncrements - o.DirtyEvictIncrements,
	}
	for i := range d.TRAQOccupancyHist {
		d.TRAQOccupancyHist[i] = s.TRAQOccupancyHist[i] - o.TRAQOccupancyHist[i]
	}
	return d
}

// AddScaled adds n copies of the per-cycle delta d to s, mirroring
// cpu.Stats.AddScaled for the session's idle-cycle fast-forward: an
// idle recorder still advances its occupancy statistics every tick,
// and n skipped ticks contribute exactly n deltas. TRAQPeak has a zero
// delta across idle ticks, so scaling leaves the maximum intact.
func (s *Stats) AddScaled(d Stats, n uint64) {
	s.Dispatched += d.Dispatched * n
	s.Counted += d.Counted * n
	s.MemCounted += d.MemCounted * n
	s.ReorderedLoads += d.ReorderedLoads * n
	s.ReorderedStores += d.ReorderedStores * n
	s.ReorderedAtomics += d.ReorderedAtomics * n
	s.OptMoves += d.OptMoves * n
	s.BaseSameInterval += d.BaseSameInterval * n
	s.PinnedReorders += d.PinnedReorders * n
	s.Intervals += d.Intervals * n
	s.LogBufferFlushes += d.LogBufferFlushes * n
	s.ConflictTerminations += d.ConflictTerminations * n
	s.SizeTerminations += d.SizeTerminations * n
	s.InorderBlocks += d.InorderBlocks * n
	s.SnoopsObserved += d.SnoopsObserved * n
	s.TRAQOccupancySum += d.TRAQOccupancySum * n
	s.TRAQSamples += d.TRAQSamples * n
	s.TRAQPeak += d.TRAQPeak * int(n)
	s.SquashedEntries += d.SquashedEntries * n
	s.DirtyEvictIncrements += d.DirtyEvictIncrements * n
	for i := range s.TRAQOccupancyHist {
		s.TRAQOccupancyHist[i] += d.TRAQOccupancyHist[i] * n
	}
}

// recTelem holds the recorder's pre-resolved telemetry handles. The
// zero value (all nil) is the disabled state: every call is a no-op.
type recTelem struct {
	intervals     *telemetry.Counter
	termConflict  *telemetry.Counter
	termSize      *telemetry.Counter
	optMoves      *telemetry.Counter
	pinned        *telemetry.Counter
	sameInterval  *telemetry.Counter
	reordLoads    *telemetry.Counter
	reordStores   *telemetry.Counter
	reordAtomics  *telemetry.Counter
	inorderBlocks *telemetry.Counter
	logFlushes    *telemetry.Counter
	snoopEvicts   *telemetry.Counter
	scReads       *telemetry.Counter
	clockSyncs    *telemetry.Counter

	chunkSize *telemetry.Histogram
	nmiUsage  *telemetry.Histogram
	traqOcc   *telemetry.Histogram

	tracer *telemetry.Tracer // nil unless tracing is on
}

// newRecTelem resolves the recorder-layer metric handles once at
// construction, keeping the counting stage free of name lookups.
func newRecTelem(t *telemetry.Telemetry) recTelem {
	reg := t.Registry()
	if reg == nil {
		return recTelem{}
	}
	rt := recTelem{
		intervals:     reg.Counter("core.intervals"),
		termConflict:  reg.Counter("core.terminations.conflict"),
		termSize:      reg.Counter("core.terminations.size"),
		optMoves:      reg.Counter("core.opt_moves"),
		pinned:        reg.Counter("core.pinned_reorders"),
		sameInterval:  reg.Counter("core.same_interval"),
		reordLoads:    reg.Counter("core.reordered.loads"),
		reordStores:   reg.Counter("core.reordered.stores"),
		reordAtomics:  reg.Counter("core.reordered.atomics"),
		inorderBlocks: reg.Counter("core.inorder_blocks"),
		logFlushes:    reg.Counter("core.log_buffer_flushes"),
		snoopEvicts:   reg.Counter("core.snooptable_evicts"),
		scReads:       reg.Counter("core.sc_field_reads"),
		clockSyncs:    reg.Counter("core.orderer.clock_syncs"),
		chunkSize:     reg.Histogram("core.chunk_size"),
		nmiUsage:      reg.Histogram("core.nmi_usage"),
		traqOcc:       reg.Histogram("core.traq_occupancy"),
	}
	if tr := t.Tracer(); tr != nil && tr.Enabled() {
		rt.tracer = tr
	}
	return rt
}

// Recorder is the per-core Memory Race Recorder.
type Recorder struct {
	core int
	cfg  Config

	orderer Orderer
	snoop   *SnoopTable

	// traq is in program order (ascending seq, fillers included), so
	// entry finds a memory access's slot by binary search.
	traq    []*traqEntry
	pending []uint64 // seqs of uncommitted non-memory dispatches
	// spare is the second buffer Squash rebuilds pending into; the two
	// swap roles, so restoring NMI seqs allocates nothing.
	spare []uint64
	// freeEntries recycles counted/squashed TRAQ entries (and their
	// nmiSeqs backing arrays): the per-dispatch allocation was a top
	// contributor on the record path's heap profile.
	freeEntries []*traqEntry

	cisn       uint64
	curBlock   uint32
	curCounted uint64 // instructions counted in the current interval

	retiredUpTo uint64 // highest retired sequence number
	anyRetired  bool

	logBufBits int // bits accumulated toward the next buffer flush

	intervals    []replaylog.Interval
	entries      []replaylog.Entry
	pendingPreds []pendingPred
	finalized    bool

	tel recTelem
	// prov captures the provenance sideband; nil (the default) makes
	// every capture call a no-op.
	prov *provenance.CoreRecorder
	// remoteFrom is the requesting core of the coherence transaction
	// currently being observed (-1 outside ObserveRemoteFrom), so a
	// conflict termination can attribute the conflict to its source.
	remoteFrom int
	// intervalStartCycle is the cycle the current interval opened, for
	// the interval-lifetime trace events.
	intervalStartCycle uint64

	Stats Stats
}

// NewRecorder builds a recorder for the given core, rejecting invalid
// configurations (see Config.Validate). A nil orderer selects the
// default QuickRec orderer from cfg's signature geometry.
func NewRecorder(core int, cfg Config, orderer Orderer) (*Recorder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if orderer == nil {
		if cfg.Ordering == OrderingLamport {
			orderer = NewLamportOrderer(cfg.SigArrays, cfg.SigBits, cfg.SigSeed)
		} else {
			orderer = NewQuickRecOrderer(cfg.SigArrays, cfg.SigBits, cfg.SigSeed)
		}
	}
	r := &Recorder{
		core:       core,
		cfg:        cfg,
		orderer:    orderer,
		tel:        newRecTelem(cfg.Telemetry),
		prov:       cfg.Provenance.Core(core),
		remoteFrom: -1,
	}
	if cfg.Variant == Opt {
		r.snoop = NewSnoopTable(cfg.SnoopArrays, cfg.SnoopEntries)
	}
	return r, nil
}

// Busy reports whether uncounted work remains in the TRAQ.
func (r *Recorder) Busy() bool { return len(r.traq) > 0 }

// Occupancy returns the current number of TRAQ entries in use.
func (r *Recorder) Occupancy() int { return len(r.traq) }

// DispatchInstr implements cpu.Hooks.DispatchInstr: memory
// instructions allocate a TRAQ entry (stalling dispatch when full);
// non-memory instructions accumulate toward the next entry's NMI
// field, spilling filler entries when they exceed the field's capacity
// (paper §4.1).
//
//rrlint:hotpath
func (r *Recorder) DispatchInstr(seq uint64, ins isa.Instr) bool {
	if !ins.IsMem() {
		if len(r.pending) >= r.cfg.NMICap {
			if len(r.traq) >= r.cfg.TRAQSize {
				return false
			}
			r.push(r.takeEntry(r.pending[len(r.pending)-1], kindFiller, r.pending))
			r.pending = r.pending[:0]
		}
		r.pending = append(r.pending, seq)
		r.Stats.Dispatched++
		return true
	}
	if len(r.traq) >= r.cfg.TRAQSize {
		return false
	}
	kind := kindLoad
	switch {
	case ins.IsAtomic():
		kind = kindAtomic
	case ins.Op == isa.ST:
		kind = kindStore
	}
	r.push(r.takeEntry(seq, kind, r.pending))
	r.pending = r.pending[:0]
	r.Stats.Dispatched++
	return true
}

// takeEntry returns a zeroed TRAQ entry for seq with the pending NMI
// sequence numbers copied in, reusing a drained entry (and its nmiSeqs
// backing array) when one is free.
func (r *Recorder) takeEntry(seq uint64, kind entryKind, nmiSeqs []uint64) *traqEntry {
	n := len(r.freeEntries)
	if n == 0 {
		return &traqEntry{
			seq: seq, kind: kind, nmi: len(nmiSeqs),
			nmiSeqs: append([]uint64(nil), nmiSeqs...),
		}
	}
	e := r.freeEntries[n-1]
	r.freeEntries[n-1] = nil
	r.freeEntries = r.freeEntries[:n-1]
	ns := e.nmiSeqs[:0]
	*e = traqEntry{seq: seq, kind: kind, nmi: len(nmiSeqs)}
	e.nmiSeqs = append(ns, nmiSeqs...)
	return e
}

// freeEntry recycles a TRAQ entry that has left the queue.
//
//rrlint:hotpath
func (r *Recorder) freeEntry(e *traqEntry) {
	r.freeEntries = append(r.freeEntries, e)
}

// push appends a TRAQ entry; callers have already checked capacity.
//
//rrlint:hotpath
func (r *Recorder) push(e *traqEntry) {
	r.traq = append(r.traq, e)
	if len(r.traq) > r.Stats.TRAQPeak {
		r.Stats.TRAQPeak = len(r.traq)
	}
}

// Perform stamps a TRAQ entry at the access's perform event: the
// current CISN becomes its PISN, the Snoop Table counters are saved,
// the value is retained for possible reordered logging, and the line
// is inserted into the interval signatures (QuickRec inserts at
// perform time).
//
//rrlint:hotpath
//rrlint:shardphase
func (r *Recorder) Perform(seq uint64, addr uint64, isRead, isWrite bool, value, storedVal uint64, didWrite bool) {
	i := r.entry(seq)
	if i < 0 {
		return // squashed wrong-path access
	}
	e := r.traq[i]
	line := addr >> 5
	e.performed = true
	e.pisn = r.cisn
	e.addr = addr
	e.line = line
	if isRead {
		e.loadVal = value
	}
	e.storeVal = storedVal
	e.didWrite = didWrite
	if r.snoop != nil {
		e.snoopCnt = r.snoop.Read(line)
		r.tel.scReads.Inc(r.core)
	}
	if isWrite {
		// Pin older uncounted same-address entries: their perform
		// events may not move past this interval (where this store,
		// if logged reordered, will be patched to).
		for _, o := range r.traq[:i] {
			if o.kind != kindFiller && o.performed && o.addr == addr && !o.pinned {
				// Keep the EARLIEST pinning store's interval: any
				// later pinning store patches no earlier than it.
				o.pinned = true
				o.pinISN = r.cisn
			}
		}
	}
	r.orderer.NotePerform(line, isRead, isWrite)
}

// entry returns the TRAQ index of the memory access seq, or -1 when
// that access was squashed or has already been counted. Filler entries
// share the seq space (each carries the seq of its last non-memory
// instruction) and keep the TRAQ sorted, but never match an access.
//
//rrlint:hotpath
func (r *Recorder) entry(seq uint64) int {
	// Open-coded binary search, like cpu.Core's seq lookup.
	lo, hi := 0, len(r.traq)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.traq[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.traq) && r.traq[lo].seq == seq && r.traq[lo].kind != kindFiller {
		return lo
	}
	return -1
}

// RetireInstr implements cpu.Hooks.RetireInstr. Retirement is in
// program order, so a single high-water mark tells whether any
// instruction (and hence any TRAQ entry, including fillers) has
// retired.
//
//rrlint:hotpath
func (r *Recorder) RetireInstr(seq uint64, isMem bool) {
	r.retiredUpTo = seq
	r.anyRetired = true
}

func (r *Recorder) isRetired(seq uint64) bool {
	return r.anyRetired && r.retiredUpTo >= seq
}

// Squash implements cpu.Hooks.Squash: TRAQ entries and pending
// non-memory dispatches from fromSeq on are discarded, mirroring the
// ROB flush (paper §4.1).
func (r *Recorder) Squash(fromSeq uint64) {
	for len(r.pending) > 0 && r.pending[len(r.pending)-1] >= fromSeq {
		r.pending = r.pending[:len(r.pending)-1]
	}
	cut := len(r.traq)
	for cut > 0 && r.traq[cut-1].seq >= fromSeq {
		cut--
	}
	// Surviving non-memory instructions folded into a squashed entry's
	// NMI field go back to the pending list, ahead of the pending ones.
	restored := r.spare[:0]
	for i, e := range r.traq[cut:] {
		for _, s := range e.nmiSeqs {
			if s < fromSeq {
				restored = append(restored, s)
			}
		}
		r.traq[cut+i] = nil
		r.Stats.SquashedEntries++
		r.freeEntry(e)
	}
	r.traq = r.traq[:cut]
	if len(restored) > 0 {
		restored = append(restored, r.pending...)
		r.pending, restored = restored, r.pending
	}
	r.spare = restored[:0]
	// If the restore overflowed the NMI capacity, re-spill into filler
	// entries (space exists: the squash just freed TRAQ slots).
	for len(r.pending) > r.cfg.NMICap {
		if len(r.traq) >= r.cfg.TRAQSize {
			panic("core: no TRAQ space to re-spill restored NMI instructions")
		}
		r.push(r.takeEntry(r.pending[r.cfg.NMICap-1], kindFiller, r.pending[:r.cfg.NMICap]))
		r.pending = append(r.pending[:0], r.pending[r.cfg.NMICap:]...)
	}
}

// ObserveRemote handles a coherence transaction from another core: the
// Snoop Table counts it, and a signature conflict terminates the
// current interval. It reports whether a termination happened and the
// sequence number of the terminated interval, which dependence-edge
// recording (parallel replay, paper §5.4) uses.
func (r *Recorder) ObserveRemote(line uint64, isWrite bool, cycle uint64) (terminated bool, seq uint64) {
	r.Stats.SnoopsObserved++
	if r.snoop != nil {
		r.snoop.Observe(line)
	}
	if r.orderer.ConflictsRemote(line, isWrite) {
		r.Stats.ConflictTerminations++
		r.tel.termConflict.Inc(r.core)
		if tr := r.tel.tracer; tr != nil {
			tr.Instant(telemetry.PidRecord, r.core, "core", "conflict-termination", cycle,
				map[string]any{"line": line, "write": isWrite, "cisn": r.cisn})
		}
		seq = r.cisn
		r.prov.NoteConflict(line, isWrite, r.remoteFrom)
		r.terminate(cycle, provenance.CauseConflict)
		return true, seq
	}
	return false, 0
}

// ObserveRemoteFrom is ObserveRemote with the requesting core made
// explicit, so a conflict termination's provenance can name the remote
// core. requester may be -1 when unknown; behavior is otherwise
// identical to ObserveRemote.
func (r *Recorder) ObserveRemoteFrom(line uint64, isWrite bool, requester int, cycle uint64) (terminated bool, seq uint64) {
	r.remoteFrom = requester
	terminated, seq = r.ObserveRemote(line, isWrite, cycle)
	r.remoteFrom = -1
	return terminated, seq
}

// CurrentISN returns the current interval sequence number.
func (r *Recorder) CurrentISN() uint64 { return r.cisn }

// OrdererClock returns the orderer's logical clock, or 0 when the
// orderer is physically timestamped.
func (r *Recorder) OrdererClock() uint64 {
	if c, ok := r.orderer.(interface{ Clock() uint64 }); ok {
		return c.Clock()
	}
	return 0
}

// SyncClock raises a logical-clock orderer to at least hint; no-op for
// physically-timestamped orderers.
func (r *Recorder) SyncClock(hint uint64) {
	if s, ok := r.orderer.(interface{ Sync(uint64) }); ok {
		s.Sync(hint)
		r.tel.clockSyncs.Inc(r.core)
	}
}

// AddPred records a cross-core dependence predecessor for the interval
// with the given sequence number (an extension over the paper's
// QuickRec pairing: explicit edges enable parallel replay à la Cyrus).
// Intervals not yet terminated accumulate their edges lazily.
func (r *Recorder) AddPred(seq uint64, pred replaylog.Pred) {
	r.pendingPreds = append(r.pendingPreds, pendingPred{seq: seq, pred: pred})
}

// DirtyEvict handles a dirty-line writeback at the given cycle. Under
// directory coherence the cache loses the ability to observe
// transactions on the evicted line, so the Snoop Table self-increments
// to conservatively declare in-flight accesses to it reordered (paper
// §4.3). Under the snoopy protocol all transactions remain visible and
// no action is needed.
func (r *Recorder) DirtyEvict(line uint64, directory bool, cycle uint64) {
	if directory && r.snoop != nil {
		r.snoop.Observe(line)
		r.Stats.DirtyEvictIncrements++
		r.tel.snoopEvicts.Inc(r.core)
		if tr := r.tel.tracer; tr != nil {
			tr.Instant(telemetry.PidRecord, r.core, "core", "snooptable-evict", cycle,
				map[string]any{"line": line})
		}
	}
}

// terminate closes the current interval: the running InorderBlock is
// flushed and an IntervalFrame with the orderer's timestamp is logged.
// cause feeds the provenance sideband only.
func (r *Recorder) terminate(cycle uint64, cause provenance.Cause) {
	r.flushBlock()
	if r.prov != nil {
		// Snapshot occupancy only when capture is on: Nonzero walks the
		// Snoop-Table counters and must cost nothing on the default path.
		sn := 0
		if r.snoop != nil {
			sn = r.snoop.Nonzero()
		}
		r.prov.NoteTerminate(r.cisn, cause, len(r.traq), sn, cycle)
	}
	r.tel.chunkSize.Observe(r.core, r.curCounted)
	r.tel.intervals.Inc(r.core)
	if tr := r.tel.tracer; tr != nil {
		tr.Complete(telemetry.PidRecord, r.core, "core", "interval", r.intervalStartCycle, cycle,
			map[string]any{"cisn": r.cisn, "instrs": r.curCounted, "entries": len(r.entries)})
	}
	r.intervals = append(r.intervals, replaylog.Interval{
		Seq:       r.cisn,
		CISN:      uint16(r.cisn),
		Timestamp: r.orderer.Timestamp(cycle),
		Entries:   r.entries,
	})
	// The next interval's entries continue in the spare capacity of the
	// same backing array (the frozen interval's window is never written
	// again; downstream Patch/PatchPartial copy before mutating). A
	// nearly-full chunk starts fresh so tiny appends don't immediately
	// reallocate.
	rest := r.entries[len(r.entries):]
	if cap(rest) < 16 {
		rest = make([]replaylog.Entry, 0, 256)
	}
	r.entries = rest
	r.cisn++
	r.curCounted = 0
	r.intervalStartCycle = cycle
	r.orderer.Reset()
	r.Stats.Intervals++
}

func (r *Recorder) flushBlock() {
	if r.curBlock == 0 {
		return
	}
	r.logEntry(replaylog.Entry{Type: replaylog.InorderBlock, Size: r.curBlock})
	r.Stats.InorderBlocks++
	r.tel.inorderBlocks.Inc(r.core)
	r.curBlock = 0
}

// logEntry appends an entry to the current interval record and models
// the hardware log buffer: a full buffer writes back to memory.
func (r *Recorder) logEntry(e replaylog.Entry) {
	r.entries = append(r.entries, e)
	if r.cfg.LogBufferBytes <= 0 {
		return
	}
	r.logBufBits += e.Bits()
	for r.logBufBits >= r.cfg.LogBufferBytes*8 {
		r.logBufBits -= r.cfg.LogBufferBytes * 8
		r.Stats.LogBufferFlushes++
		r.tel.logFlushes.Inc(r.core)
	}
}

// Tick runs the counting stage: up to CountPerCycle TRAQ entries drain
// from the head once they are both performed and retired, in program
// order. It also samples TRAQ occupancy for Figure 12.
//
//rrlint:hotpath
//rrlint:shardphase
func (r *Recorder) Tick(cycle uint64) {
	r.Stats.TRAQOccupancySum += uint64(len(r.traq))
	r.Stats.TRAQSamples++
	bin := len(r.traq) / 10
	if bin >= len(r.Stats.TRAQOccupancyHist) {
		bin = len(r.Stats.TRAQOccupancyHist) - 1
	}
	r.Stats.TRAQOccupancyHist[bin]++
	r.tel.traqOcc.Observe(r.core, uint64(len(r.traq)))

	// The drained prefix is shifted out after the loop rather than
	// re-sliced away per entry, so the queue keeps its backing array
	// and push stops allocating.
	pop := 0
	for n := 0; n < r.cfg.CountPerCycle && pop < len(r.traq); n++ {
		e := r.traq[pop]
		if e.kind == kindFiller {
			if !r.isRetired(e.seq) {
				break // the filler's instructions have not retired yet
			}
			r.count(e, cycle)
			pop++
			r.freeEntry(e)
			continue
		}
		if !e.performed || !r.isRetired(e.seq) {
			break // counting is in order: wait for the head
		}
		r.count(e, cycle)
		pop++
		r.freeEntry(e)
	}
	if pop > 0 {
		m := copy(r.traq, r.traq[pop:])
		clear(r.traq[m:len(r.traq)])
		r.traq = r.traq[:m]
	}
}

// count processes one entry at the TRAQ head (the paper's Counting
// event) and decides in-order vs reordered.
func (r *Recorder) count(e *traqEntry, cycle uint64) {
	if e.kind == kindFiller {
		r.curBlock += uint32(e.nmi)
		r.curCounted += uint64(e.nmi)
		r.Stats.Counted += uint64(e.nmi)
		r.checkSize(cycle)
		return
	}

	r.Stats.Counted += uint64(e.nmi) + 1
	r.Stats.MemCounted++
	r.curCounted += uint64(e.nmi) + 1
	r.tel.nmiUsage.Observe(r.core, uint64(e.nmi))

	inOrder := e.pisn == r.cisn || r.cfg.AssumeSC
	if inOrder {
		r.Stats.BaseSameInterval++
		r.tel.sameInterval.Inc(r.core)
	} else if e.pinned && r.cisn > e.pinISN && !r.cfg.UnsafeDisablePinning {
		r.Stats.PinnedReorders++
		r.tel.pinned.Inc(r.core)
	} else if r.cfg.Variant == Opt && !r.snoop.Conflicts(e.line, e.snoopCnt) {
		// No conflicting transaction observed between perform and
		// counting: move the perform event to the counting point. The
		// access now logically performs in this interval, so its line
		// re-enters the current signatures (paper §4.2).
		inOrder = true
		r.Stats.OptMoves++
		r.tel.optMoves.Inc(r.core)
		r.orderer.NotePerform(e.line, e.kind != kindStore, e.kind != kindLoad)
	}

	if inOrder {
		r.curBlock += uint32(e.nmi) + 1
		r.checkSize(cycle)
		return
	}

	// Reordered: flush the preceding in-order run (including this
	// instruction's NMI prefix) and log a reordered entry.
	r.curBlock += uint32(e.nmi)
	r.flushBlock()
	offset := r.cisn - e.pisn
	if offset > 0xffff {
		// CISN is 16 bits in hardware; structurally impossible here
		// because the TRAQ depth bounds perform-to-count distance, but
		// keep the log well-formed if configs get exotic.
		panic(fmt.Sprintf("core: interval offset %d overflows 16 bits", offset))
	}
	var kind string
	var provKind uint8
	switch e.kind {
	case kindLoad:
		r.logEntry(replaylog.Entry{Type: replaylog.ReorderedLoad, Value: e.loadVal})
		r.Stats.ReorderedLoads++
		r.tel.reordLoads.Inc(r.core)
		kind, provKind = "load", provenance.ReorderLoad
	case kindStore:
		r.logEntry(replaylog.Entry{
			Type: replaylog.ReorderedStore, Addr: e.addr, Value: e.storeVal, Offset: uint16(offset),
		})
		r.Stats.ReorderedStores++
		r.tel.reordStores.Inc(r.core)
		kind, provKind = "store", provenance.ReorderStore
	case kindAtomic:
		r.logEntry(replaylog.Entry{
			Type: replaylog.ReorderedAtomic, Addr: e.addr, Value: e.loadVal,
			StoreValue: e.storeVal, DidWrite: e.didWrite, Offset: uint16(offset),
		})
		r.Stats.ReorderedAtomics++
		r.tel.reordAtomics.Inc(r.core)
		kind, provKind = "atomic", provenance.ReorderAtomic
	}
	r.prov.NoteReorder(provKind, uint16(offset), cycle)
	if tr := r.tel.tracer; tr != nil {
		tr.Instant(telemetry.PidRecord, r.core, "core", "reorder", cycle,
			map[string]any{"kind": kind, "offset": offset, "pisn": e.pisn, "cisn": r.cisn})
	}
	r.checkSize(cycle)
}

func (r *Recorder) checkSize(cycle uint64) {
	if r.cfg.MaxIntervalInstrs > 0 && r.curCounted >= r.cfg.MaxIntervalInstrs {
		r.Stats.SizeTerminations++
		r.terminate(cycle, provenance.CauseSize)
	}
}

// Halted implements cpu.Hooks.Halted. The trailing non-memory
// instructions (tracked in r.pending) are folded into a final
// InorderBlock at Finalize; the argument cross-checks the core's view
// (spilled filler entries account for any difference in multiples of
// the NMI capacity).
func (r *Recorder) Halted(trailingInstrs int) {
	diff := trailingInstrs - len(r.pending)
	if diff < 0 || diff%r.cfg.NMICap != 0 {
		panic(fmt.Sprintf("core %d: recorder sees %d trailing instructions, core retired %d",
			r.core, len(r.pending), trailingInstrs))
	}
}

// Finalize flushes trailing state and returns the core's interval
// stream. The TRAQ must have drained (machine kept ticking until idle).
func (r *Recorder) Finalize(cycle uint64) (replaylog.CoreLog, error) {
	if r.finalized {
		return replaylog.CoreLog{}, fmt.Errorf("core %d: recorder already finalized", r.core)
	}
	if len(r.traq) > 0 {
		return replaylog.CoreLog{}, fmt.Errorf("core %d: %d TRAQ entries never counted", r.core, len(r.traq))
	}
	r.finalized = true
	// Trailing non-memory instructions (including HALT) form the last
	// InorderBlock so the replayer executes through the HALT.
	r.curBlock += uint32(len(r.pending))
	r.curCounted += uint64(len(r.pending))
	r.Stats.Counted += uint64(len(r.pending))
	r.pending = nil
	r.terminate(cycle, provenance.CauseFinal)
	for _, pp := range r.pendingPreds {
		if pp.seq < uint64(len(r.intervals)) {
			iv := &r.intervals[pp.seq]
			iv.Preds = append(iv.Preds, pp.pred)
		}
	}
	return replaylog.CoreLog{Core: r.core, Intervals: r.intervals}, nil
}
