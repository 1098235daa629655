// Package coherence models the memory hierarchy of the simulated
// multicore: per-core MESI L1 caches, a shared L2 agent that is the
// transaction ordering point, and main memory, connected by the
// slotted ring from package interconnect.
//
// Two protocols are provided, selected by Config.Protocol:
//
//   - Snoopy (default, the paper's evaluation configuration): every
//     coherence transaction circulates the whole ring, so every core
//     observes every transaction — the property RelaxReplay_Opt's
//     Snoop Table relies on, and the reason its pressure grows with
//     core count (paper §5.5).
//   - Directory: the L2 home keeps exact owner/sharer state and sends
//     targeted invalidations/fetches, so a core only observes traffic
//     for lines it actually cached (paper §4.3).
//
// Both protocols provide write atomicity: a store performs only when
// its transaction has completed, i.e. after every other copy of the
// line has been invalidated. This is the property RelaxReplay's
// Observation 1 requires of the substrate.
//
// Perform events (the binding of a value to an access) are exported at
// the exact cycle they happen so the memory race recorder can stamp
// PISNs and Snoop Counts without any window between value binding and
// observation.
//
//rrlint:deterministic
package coherence

import (
	"container/heap"
	"fmt"

	"relaxreplay/internal/faultinject"
	"relaxreplay/internal/interconnect"
	"relaxreplay/internal/telemetry"
)

// Line geometry (paper Table 1: 32-byte lines, 8-byte words).
const (
	LineSize     = 32
	WordsPerLine = LineSize / 8
	lineShift    = 5
)

// LineData is the payload of one cache line.
type LineData [WordsPerLine]uint64

// LineOf returns the line address (line number) containing addr.
func LineOf(addr uint64) uint64 { return addr >> lineShift }

// wordOf returns the word index within the line for addr.
func wordOf(addr uint64) int { return int(addr>>3) & (WordsPerLine - 1) }

// Protocol selects the coherence protocol.
type Protocol uint8

const (
	// Snoopy broadcasts every transaction around the ring (MESI).
	Snoopy Protocol = iota
	// Directory sends targeted invalidations from the L2 home (MESI).
	Directory
)

func (p Protocol) String() string {
	if p == Directory {
		return "directory"
	}
	return "snoopy"
}

// Config holds the memory system parameters (defaults per paper Table 1).
type Config struct {
	Cores    int
	Protocol Protocol

	L1Sets   int // 64KB 4-way 32B lines -> 512 sets
	L1Ways   int
	L1HitLat uint64 // L1 round trip, cycles
	L1MSHRs  int

	L2Lat      uint64 // L2 lookup latency, cycles
	L2Capacity int    // resident lines (latency model); 512KB per core
	MemLat     uint64 // additional latency for a non-resident line

	// Telemetry, when non-nil, receives the memory-system counters and
	// the MSHR occupancy histogram (metric names under "coherence.").
	// It observes only: simulation behaviour is identical without it.
	Telemetry *telemetry.Telemetry

	// Faults, when non-nil, is handed to the ring (ic.delay / ic.drop
	// points). Nil leaves the memory system fully deterministic.
	Faults *faultinject.Injector
}

// DefaultConfig returns the paper's Table 1 memory system for the
// given core count.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:      cores,
		Protocol:   Snoopy,
		L1Sets:     512,
		L1Ways:     4,
		L1HitLat:   2,
		L1MSHRs:    64,
		L2Lat:      12,
		L2Capacity: cores * 512 * 1024 / LineSize,
		MemLat:     150,
	}
}

// Kind classifies a memory operation submitted by a core.
type Kind uint8

const (
	// Load reads one word.
	Load Kind = iota
	// Store writes one word.
	Store
	// RMW atomically reads a word, applies Request.Apply, and
	// (conditionally) writes the result.
	RMW
)

func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return "rmw"
	}
}

// Request is a memory operation submitted by a core's load/store unit.
type Request struct {
	Core int
	ID   uint64 // core-local operation id, echoed in events
	Addr uint64
	Kind Kind

	StoreVal uint64
	// Apply implements the RMW: given the old word it returns the new
	// word and whether the write takes effect (false for a failed CAS).
	Apply func(old uint64) (newVal uint64, write bool)
}

// PerformEvent reports that an access bound its value: the paper's
// "perform" event. It is visible to the recorder on the very cycle it
// happens.
type PerformEvent struct {
	Core    int
	ID      uint64
	Line    uint64
	Addr    uint64
	IsWrite bool   // store or (any) RMW
	IsRead  bool   // load or RMW
	Value   uint64 // value read (loads, RMW old value) or written (stores)
	// StoredVal/DidWrite describe the write half (stores and RMWs);
	// the recorder needs them to log reordered stores and atomics.
	StoredVal uint64
	DidWrite  bool
	Cycle     uint64
}

// Completion reports the result of an operation back to the pipeline,
// L1-hit latency (or the miss path) after the perform event.
type Completion struct {
	Core  int
	ID    uint64
	Value uint64 // load value; RMW old value; unspecified for stores
	Cycle uint64
}

// Stats aggregates memory-system counters.
type Stats struct {
	L1Hits, L1Misses   uint64
	Upgrades           uint64
	DirtyEvictions     uint64
	Transactions       uint64
	SnoopsObserved     uint64 // remote snoops delivered to cores
	CacheToCache       uint64
	L2Misses           uint64 // non-resident accesses (memory latency paid)
	RingMessages       uint64
	MSHRRejects        uint64
	InvalidationsSent  uint64 // directory mode
	StaleWritebacks    uint64 // PutM dropped at L2
	WBBufferSupplies   uint64 // data supplied from a writeback buffer
	SupersededWBEvents uint64
}

// System is the full memory hierarchy for one simulated machine.
type System struct {
	cfg   Config
	ring  *interconnect.Ring
	l1s   []*l1cache
	l2    *l2agent
	cycle uint64

	events   eventQueue
	eventSeq uint64
	// freeEvents recycles fired event boxes so the steady-state event
	// traffic allocates nothing.
	freeEvents []*event

	performs    []PerformEvent
	completions []Completion
	// Spare buffers for the double-buffered Drain* calls: the slice a
	// drain returns stays valid until the next drain of the same kind,
	// while new events accumulate in the other buffer.
	performsSpare    []PerformEvent
	completionsSpare []Completion

	// OnPerform, when set, receives every perform event synchronously,
	// at the exact point within the cycle where the value binds. This
	// preserves the true intra-cycle order between performs and
	// observed snoops, which the recorder's PISN stamping relies on.
	// When unset, events are queued for DrainPerforms instead.
	OnPerform func(ev PerformEvent)
	// OnRemoteSnoop is invoked when core observes a coherence
	// transaction it did not originate (a passing ring snoop in snoopy
	// mode; a received Inv/Fetch in directory mode). The recorder uses
	// it for signature conflict checks and Snoop Table updates;
	// requester identifies the transaction's originating core, which
	// dependence-edge recording (parallel replay) needs.
	OnRemoteSnoop func(core int, line uint64, isWrite bool, requester int, cycle uint64)
	// OnDirtyEvict is invoked when a core writes back a dirty line. In
	// directory mode RelaxReplay_Opt must self-increment its Snoop
	// Table on this event (paper §4.3).
	OnDirtyEvict func(core int, line uint64, cycle uint64)

	// ClockOf and OnHint implement logical-clock piggybacking for
	// orderers that use Lamport-style scalar clocks instead of a
	// global physical clock (Intel MRR / Cyrus style, paper §2).
	// When set, every coherence message accumulates the clocks of the
	// cores that held the line it touches (ClockOf), and the
	// accumulated hint is delivered to the requester with the data
	// grant (OnHint). Leave nil for physical-timestamp ordering.
	ClockOf func(core int) uint64
	// OnHint delivers the accumulated clock hint with a data grant.
	OnHint func(core int, hint uint64)

	Stats Stats
	tel   memTelem
}

// memTelem holds the memory system's pre-resolved telemetry handles.
// The zero value (all nil) is the disabled state: every call is a
// no-op.
type memTelem struct {
	l1Hits        *telemetry.Counter
	l1Misses      *telemetry.Counter
	upgrades      *telemetry.Counter
	mshrRejects   *telemetry.Counter
	dirtyEvicts   *telemetry.Counter
	cacheToCache  *telemetry.Counter
	l2Misses      *telemetry.Counter
	invalidations *telemetry.Counter
	snoops        *telemetry.Counter
	wbSupplies    *telemetry.Counter
	transactions  *telemetry.Counter

	mshrOcc *telemetry.Histogram
}

// newMemTelem resolves the coherence-layer metric handles once at
// system construction, keeping the hot path free of name lookups.
func newMemTelem(t *telemetry.Telemetry) memTelem {
	reg := t.Registry()
	if reg == nil {
		return memTelem{}
	}
	return memTelem{
		l1Hits:        reg.Counter("coherence.l1.hits"),
		l1Misses:      reg.Counter("coherence.l1.misses"),
		upgrades:      reg.Counter("coherence.upgrades"),
		mshrRejects:   reg.Counter("coherence.mshr_rejects"),
		dirtyEvicts:   reg.Counter("coherence.dirty_evictions"),
		cacheToCache:  reg.Counter("coherence.cache_to_cache"),
		l2Misses:      reg.Counter("coherence.l2.misses"),
		invalidations: reg.Counter("coherence.invalidations"),
		snoops:        reg.Counter("coherence.snoops_observed"),
		wbSupplies:    reg.Counter("coherence.wb_supplies"),
		transactions:  reg.Counter("coherence.transactions"),
		mshrOcc:       reg.Histogram("coherence.mshr_occupancy"),
	}
}

// New builds a memory system. Core IDs are 0..cfg.Cores-1; the L2
// agent is ring node cfg.Cores.
func New(cfg Config) *System {
	if cfg.Cores < 1 {
		panic("coherence: need at least one core")
	}
	s := &System{
		cfg:  cfg,
		ring: interconnect.New(cfg.Cores + 1),
		tel:  newMemTelem(cfg.Telemetry),
	}
	s.ring.Faults = cfg.Faults
	s.l1s = make([]*l1cache, cfg.Cores)
	for i := range s.l1s {
		s.l1s[i] = newL1(s, i)
	}
	s.l2 = newL2(s)
	return s
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Cycle returns the current cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// MSHROccupancy returns the number of outstanding misses at core's L1,
// for the machine's cycle-sampled telemetry tracks.
func (s *System) MSHROccupancy(core int) int { return len(s.l1s[core].mshrs) }

// RingQueueDepth returns the number of messages waiting for ring
// injection across all stations.
func (s *System) RingQueueDepth() int { return s.ring.QueueDepth() }

// RingHops returns the cumulative number of message hops on the ring.
func (s *System) RingHops() uint64 { return s.ring.Hops }

// InitWord initializes memory before simulation starts.
func (s *System) InitWord(addr, val uint64) {
	e := s.l2.entry(LineOf(addr))
	e.data[wordOf(addr)] = val
}

// PeekWord returns the current coherent value of a word, looking at
// the owning cache first. It is a debugging/verification aid and does
// not perturb the simulation.
func (s *System) PeekWord(addr uint64) uint64 {
	line := LineOf(addr)
	for _, l1 := range s.l1s {
		if cl := l1.lookup(line); cl != nil && cl.state == stateM {
			return cl.data[wordOf(addr)]
		}
		if wb := l1.wbEntry(line); wb != nil && !wb.superseded {
			return wb.data[wordOf(addr)]
		}
	}
	e := s.l2.entry(line)
	return e.data[wordOf(addr)]
}

// FinalMemory returns the coherent memory image (all non-zero words)
// after the simulation has quiesced.
func (s *System) FinalMemory() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	emit := func(line uint64, data *LineData) {
		for w := 0; w < WordsPerLine; w++ {
			if data[w] != 0 {
				out[line<<lineShift+uint64(w*8)] = data[w]
			}
		}
	}
	for line, e := range s.l2.dir {
		owned := false
		for _, l1 := range s.l1s {
			if cl := l1.lookup(line); cl != nil && cl.state == stateM {
				emit(line, &cl.data)
				owned = true
				break
			}
		}
		if !owned {
			emit(line, &e.data)
		}
	}
	return out
}

// Submit hands a memory operation to the core's L1. It returns false
// when the L1 cannot accept the request this cycle (MSHRs full); the
// caller must retry. Alignment to 8 bytes is required.
func (s *System) Submit(r Request) bool {
	if r.Addr%8 != 0 {
		panic(fmt.Sprintf("coherence: unaligned access %#x", r.Addr))
	}
	if r.Kind == RMW && r.Apply == nil {
		panic("coherence: RMW without Apply")
	}
	return s.l1s[r.Core].submit(r)
}

// Busy reports whether any transaction or queued work remains.
func (s *System) Busy() bool {
	if s.ring.Busy() || len(s.events) > 0 || s.l2.busyLines > 0 {
		return true
	}
	for _, l1 := range s.l1s {
		if l1.busy() {
			return true
		}
	}
	return false
}

// Tick advances the memory system one cycle. The caller then drains
// DrainPerforms (same-cycle perform events, for the recorder) and
// DrainCompletions (pipeline notifications).
func (s *System) Tick() {
	s.cycle++
	for _, d := range s.ring.Tick() {
		s.dispatch(d)
	}
	for len(s.events) > 0 && s.events[0].cycle <= s.cycle {
		ev := heap.Pop(&s.events).(*event)
		if ev.fn != nil {
			ev.fn()
			ev.fn = nil // release the closure before recycling
		} else {
			// Tagged completion event (see complete).
			s.completions = append(s.completions, Completion{Core: ev.core, ID: ev.id, Value: ev.value, Cycle: s.cycle})
		}
		s.freeEvents = append(s.freeEvents, ev)
	}
	s.Stats.RingMessages = s.ring.Injected
	if s.tel.mshrOcc != nil {
		for i, l1 := range s.l1s {
			s.tel.mshrOcc.Observe(i, uint64(len(l1.mshrs)))
		}
	}
}

// DrainPerforms returns and clears the perform events generated this
// cycle. The returned slice is valid until the next DrainPerforms call.
func (s *System) DrainPerforms() []PerformEvent {
	out := s.performs
	s.performs = s.performsSpare[:0]
	s.performsSpare = out
	return out
}

// DrainCompletions returns and clears the completions due by this
// cycle. The returned slice is valid until the next DrainCompletions
// call.
func (s *System) DrainCompletions() []Completion {
	out := s.completions
	s.completions = s.completionsSpare[:0]
	s.completionsSpare = out
	return out
}

func (s *System) dispatch(d interconnect.Delivery) {
	if d.Node == s.cfg.Cores {
		if d.Final {
			s.l2.receive(d.Msg)
		}
		return
	}
	s.l1s[d.Node].receive(d.Msg, d.Final)
}

// at schedules an arbitrary protocol action on the event heap.
func (s *System) at(delay uint64, fn func()) {
	e := s.takeEvent()
	e.cycle = s.cycle + delay
	e.fn = fn
	heap.Push(&s.events, e)
}

// takeEvent returns a reset event box with a fresh sequence number,
// reusing a fired one when available.
func (s *System) takeEvent() *event {
	s.eventSeq++
	var e *event
	if n := len(s.freeEvents); n > 0 {
		e = s.freeEvents[n-1]
		s.freeEvents[n-1] = nil
		s.freeEvents = s.freeEvents[:n-1]
		*e = event{}
	} else {
		e = new(event)
	}
	e.seq = s.eventSeq
	return e
}

func (s *System) perform(ev PerformEvent) {
	ev.Cycle = s.cycle
	if s.OnPerform != nil {
		s.OnPerform(ev)
		return
	}
	s.performs = append(s.performs, ev)
}

// complete schedules a pipeline completion notification. It is the
// highest-traffic event kind, so instead of a closure it uses a tagged
// event (fn == nil) whose payload rides in the event box itself.
func (s *System) complete(core int, id uint64, value uint64, delay uint64) {
	e := s.takeEvent()
	e.cycle = s.cycle + delay
	e.core, e.id, e.value = core, id, value
	heap.Push(&s.events, e)
}

func (s *System) observeSnoop(core int, line uint64, isWrite bool, requester int) {
	s.Stats.SnoopsObserved++
	s.tel.snoops.Inc(core)
	if s.OnRemoteSnoop != nil {
		s.OnRemoteSnoop(core, line, isWrite, requester, s.cycle)
	}
}

// event queue -----------------------------------------------------------

type event struct {
	cycle uint64
	seq   uint64
	// fn, when non-nil, is an arbitrary protocol action. When nil the
	// event is a tagged completion carrying its payload inline (see
	// System.complete), which keeps the hottest event kind closure-free.
	fn    func()
	core  int
	id    uint64
	value uint64
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].cycle != q[j].cycle {
		return q[i].cycle < q[j].cycle
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}
