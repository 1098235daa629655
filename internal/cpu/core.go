package cpu

import (
	"fmt"

	"relaxreplay/internal/coherence"
	"relaxreplay/internal/isa"
)

// Core is one simulated out-of-order core.
type Core struct {
	id    int
	cfg   Config
	prog  isa.Program
	mem   MemPort
	hooks Hooks

	cycle   uint64
	pc      int
	nextSeq uint64

	fetchStallUntil uint64
	haltSeq         int64 // seq of a dispatched HALT, -1 when none
	halted          bool
	err             error

	archRegs [isa.NumRegs]uint64
	regOwner [isa.NumRegs]*uop

	// rob and lsq are windows that advance through robBuf and lsqBuf
	// (see pushWindow), so neither queue reallocates as it turns over.
	// Together with wb they hold every live uop in ascending seq order,
	// which lookup relies on.
	rob       []*uop
	lsq       []*uop // memory ops and fences, program order
	wb        []*uop // retired stores awaiting their perform, program order
	readyALU  []*uop
	executing []*uop
	robBuf    []*uop
	lsqBuf    []*uop

	// execScratch is the spare buffer completeExecuting swaps with
	// executing each cycle, so the per-cycle rebuild allocates nothing.
	execScratch []*uop
	// freeUops recycles retired and squashed uops; see allocUop.
	freeUops []*uop
	// work counts state changes; see WorkCount.
	work uint64

	predictor []uint8

	inputs []uint64
	inPos  int

	nonMemSinceMemRetire int

	tel   coreTelem
	Stats Stats
}

// New builds a core executing prog against mem. Initial register state
// can be set with SetReg before the first Tick.
func New(id int, cfg Config, prog isa.Program, mem MemPort, hooks Hooks) *Core {
	c := &Core{
		id:        id,
		cfg:       cfg,
		prog:      prog,
		mem:       mem,
		hooks:     hooks,
		haltSeq:   -1,
		robBuf:    make([]*uop, 2*cfg.ROBSize),
		lsqBuf:    make([]*uop, 2*cfg.LSQSize),
		predictor: make([]uint8, 1<<cfg.PredictorBits),
		tel:       newCoreTelem(cfg.Telemetry),
	}
	c.rob, c.lsq = c.robBuf[:0], c.lsqBuf[:0]
	for i := range c.predictor {
		c.predictor[i] = 2 // weakly taken
	}
	return c
}

// SetReg initializes an architectural register (e.g. the thread id).
func (c *Core) SetReg(r isa.Reg, v uint64) {
	if r != 0 {
		c.archRegs[r] = v
	}
}

// SetInputs provides the external input stream consumed by IN.
func (c *Core) SetInputs(in []uint64) { c.inputs = in }

// Halted reports whether the core has retired HALT.
func (c *Core) Halted() bool { return c.halted }

// Err returns the execution error, if any (e.g. input exhaustion).
func (c *Core) Err() error { return c.err }

// Quiesced reports whether the core has no in-flight work left.
func (c *Core) Quiesced() bool {
	return c.halted && len(c.rob) == 0 && len(c.wb) == 0
}

// ArchRegs returns the architectural register file (valid once halted).
func (c *Core) ArchRegs() [isa.NumRegs]uint64 { return c.archRegs }

// ID returns the core id.
func (c *Core) ID() int { return c.id }

// HandlePerform delivers a memory-system perform event: the access
// bound its value this cycle. It may be called synchronously from
// inside a Submit, so it must not mutate the pipeline queues; a
// performed write-buffer store is swept out by drainWB.
//
//rrlint:shardphase
func (c *Core) HandlePerform(ev coherence.PerformEvent) {
	u := c.lookup(ev.ID)
	if u == nil {
		return // squashed wrong-path access
	}
	c.markPerformed(u)
}

// HandleCompletion delivers the pipeline notification for a load, RMW
// or store submitted to the memory system.
//
//rrlint:shardphase
func (c *Core) HandleCompletion(ev coherence.Completion) {
	u := c.lookup(ev.ID)
	if u == nil || u.state == uopDone {
		return // squashed, or a store (already finished via perform)
	}
	if u.ins.Op == isa.ST {
		return
	}
	c.finish(u, ev.Value)
}

// lookup returns the live uop with sequence number seq, or nil when
// seq was squashed or has already left the core. The live uops are
// exactly the write buffer (retired stores awaiting their perform)
// followed by the ROB, each in ascending seq order and every store in
// the write buffer older than the ROB head, so a binary search finds
// the uop. Sequence numbers are never reused, so a squashed seq can
// never match a recycled uop.
//
//rrlint:hotpath
func (c *Core) lookup(seq uint64) *uop {
	q := c.wb
	if len(c.rob) > 0 && seq >= c.rob[0].seq {
		q = c.rob
	}
	if i := searchSeq(q, seq); i < len(q) && q[i].seq == seq {
		return q[i]
	}
	return nil
}

// searchSeq returns the index of the first uop of q, which is in
// ascending seq order, whose seq is at least seq. Open-coded:
// sort.Search's closure would allocate its environment on these
// per-instruction paths.
//
//rrlint:hotpath
func searchSeq(q []*uop, seq uint64) int {
	lo, hi := 0, len(q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// markPerformed records the perform event and whether it was out of
// program order (an older memory op still pending), for Figure 1.
//
//rrlint:hotpath
func (c *Core) markPerformed(u *uop) {
	if u.performed {
		return
	}
	c.work++
	u.performed = true
	u.oooPerform = c.olderMemPending(u.seq)
	// Stores perform after retirement (from the write buffer), so
	// their Figure 1 accounting happens here; loads are counted when
	// they retire (wrong-path loads must not count).
	if u.ins.Op == isa.ST && u.oooPerform {
		c.Stats.OOOStores++
	}
}

// olderMemPending reports whether any memory op older than seq has not
// performed yet.
func (c *Core) olderMemPending(seq uint64) bool {
	for _, w := range c.wb {
		if w.seq < seq && !w.performed {
			return true
		}
	}
	for _, u := range c.lsq {
		if u.seq >= seq {
			break
		}
		if u.isMem() && !u.performed {
			return true
		}
	}
	return false
}

// finish completes a uop's execution: the result is available and
// waiting consumers wake.
//
//rrlint:hotpath
func (c *Core) finish(u *uop, val uint64) {
	c.work++
	u.val = val
	u.state = uopDone
	for _, w := range u.waiters { // never squashed: see squashAfter
		for i := range w.srcOwner {
			if w.srcOwner[i] == u {
				w.srcOwner[i] = nil
				w.srcVal[i] = val
				w.pendingSrc--
			}
		}
		if w.pendingSrc == 0 && w.state == uopWaiting && c.wantsALUQueue(w) {
			c.pushReady(w)
		}
	}
	u.waiters = u.waiters[:0] // keep the backing array for reuse
}

// wantsALUQueue reports whether the uop issues through the ALU ready
// queue (memory ops, fences, IN and RMW are handled elsewhere).
func (c *Core) wantsALUQueue(u *uop) bool {
	switch u.ins.Op {
	case isa.LD, isa.FENCE, isa.IN, isa.AMOADD, isa.AMOSWAP, isa.CAS, isa.HALT, isa.NOP, isa.JMP:
		return false
	}
	return true
}

//rrlint:hotpath
func (c *Core) pushReady(u *uop) {
	c.work++
	u.state = uopReady
	lo := searchSeq(c.readyALU, u.seq+1)
	c.readyALU = append(c.readyALU, nil)
	copy(c.readyALU[lo+1:], c.readyALU[lo:])
	c.readyALU[lo] = u
}

// Tick advances the core one cycle. The machine must deliver this
// cycle's perform and completion events before calling Tick. Under the
// sharded run loop Tick runs on a shard worker, so everything it
// reaches must be core-local or a coherence staging handoff.
//
//rrlint:shardphase
func (c *Core) Tick(cycle uint64) {
	c.cycle = cycle
	if c.err != nil || c.Quiesced() {
		return
	}
	c.Stats.Cycles++
	c.tel.cycles.Inc(c.id)
	c.tel.robOcc.Observe(c.id, uint64(len(c.rob)))
	c.tel.lsqOcc.Observe(c.id, uint64(len(c.lsq)))
	c.completeExecuting()
	c.retire()
	c.issueMem()
	c.issueALU()
	c.dispatch()
}

// completeExecuting finishes ALU-class uops whose latency elapsed.
// Executing a branch may squash (which rewrites c.executing), so the
// walk runs over a detached snapshot. The snapshot and the rebuilt
// queue ping-pong between two persistent buffers, so the per-cycle
// rebuild never allocates.
//
//rrlint:hotpath
func (c *Core) completeExecuting() {
	snapshot := c.executing
	c.executing = c.execScratch[:0]
	for _, u := range snapshot {
		if u.squashed {
			continue
		}
		if u.doneAt > c.cycle {
			c.executing = append(c.executing, u)
			continue
		}
		c.execute(u)
	}
	c.execScratch = snapshot[:0]
}

// execute applies the architectural semantics of an ALU-class uop.
func (c *Core) execute(u *uop) {
	ins := u.ins
	switch {
	case ins.Op == isa.IN || u.forwarded:
		c.finish(u, u.val) // value already bound
	case ins.IsBranch():
		taken := isa.BranchTaken(&ins, u.srcVal[0], u.srcVal[1])
		c.trainPredictor(u.pc, taken)
		c.finish(u, 0)
		if taken != u.predictedTaken {
			c.Stats.Mispredicts++
			c.tel.mispredict.Inc(c.id)
			c.mispredict(u, taken)
		}
	case ins.Op == isa.ST:
		u.addr = isa.EffAddr(ins, u.srcVal[0])
		u.addrKnown = true
		c.finish(u, u.srcVal[1]) // val holds the store data
	default:
		c.finish(u, isa.EvalALU(&ins, u.srcVal[0], u.srcVal[1]))
	}
}

// mispredict squashes the wrong path and redirects fetch.
func (c *Core) mispredict(u *uop, taken bool) {
	c.squashAfter(u.seq)
	if taken {
		c.pc = int(u.ins.Imm)
	} else {
		c.pc = u.pc + 1
	}
	c.fetchStallUntil = c.cycle + c.cfg.MispredictPenalty
}

// squashAfter removes every uop with seq > after from the pipeline and
// recycles it: a squashed uop goes to freeUops and is unlinked from
// every queue and from the waiter list of every surviving producer
// before dispatch can reuse it. It keeps its squashed flag until
// allocUop reuses it, because the snapshot completeExecuting walks may
// still hold it.
func (c *Core) squashAfter(after uint64) {
	c.work++
	cut := len(c.rob)
	for cut > 0 && c.rob[cut-1].seq > after {
		cut--
		c.rob[cut].squashed = true
		c.Stats.SquashedUops++
		c.tel.squashed.Inc(c.id)
	}
	if cut == len(c.rob) {
		return
	}
	c.freeUops = append(c.freeUops, c.rob[cut:]...)
	c.rob = c.rob[:cut]

	c.lsq = liveUops(c.lsq)
	c.readyALU = liveUops(c.readyALU)
	c.executing = liveUops(c.executing)

	// Rebuild the rename table from the surviving ROB, and drop the
	// squashed consumers from the survivors' waiter lists (only a
	// producer still in flight has a non-empty list).
	for r := range c.regOwner {
		c.regOwner[r] = nil
	}
	for _, u := range c.rob {
		if u.ins.WritesReg() {
			c.regOwner[u.ins.Rd] = u
		}
		if len(u.waiters) > 0 {
			u.waiters = liveUops(u.waiters)
		}
	}
	if c.haltSeq > int64(after) {
		c.haltSeq = -1
	}
	if c.hooks.Squash != nil {
		c.hooks.Squash(after + 1)
	}
}

// liveUops filters the squashed uops out of s in place.
func liveUops(s []*uop) []*uop {
	out := s[:0]
	for _, u := range s {
		if !u.squashed {
			out = append(out, u)
		}
	}
	return out
}

func (c *Core) predictorIdx(pc int) int { return pc & (len(c.predictor) - 1) }

func (c *Core) predictTaken(pc int) bool { return c.predictor[c.predictorIdx(pc)] >= 2 }

func (c *Core) trainPredictor(pc int, taken bool) {
	i := c.predictorIdx(pc)
	if taken {
		if c.predictor[i] < 3 {
			c.predictor[i]++
		}
	} else if c.predictor[i] > 0 {
		c.predictor[i]--
	}
}

// retire commits up to IssueWidth instructions in program order.
func (c *Core) retire() {
	for n := 0; n < c.cfg.IssueWidth && len(c.rob) > 0; n++ {
		u := c.rob[0]
		switch {
		case u.ins.Op == isa.ST:
			if u.state != uopDone {
				return
			}
			if len(c.wb) >= c.cfg.WBSize {
				c.Stats.RetireStallWB++
				c.tel.stallWB.Inc(c.id)
				return
			}
			c.wb = append(c.wb, u)
			// Stays live (lookup finds it in wb) until drainWB sweeps
			// it out after its perform event.
		case u.ins.IsMem(): // loads, atomics
			if u.state != uopDone || !u.performed {
				return
			}
		case u.ins.Op == isa.FENCE:
			if !c.fenceDone(u) {
				return
			}
		case u.ins.Op == isa.HALT:
			c.work++
			c.halted = true
			c.Stats.Retired++
			c.tel.retired.Inc(c.id)
			c.nonMemSinceMemRetire++
			c.rob = c.rob[1:]
			if c.hooks.RetireInstr != nil {
				c.hooks.RetireInstr(u.seq, false)
			}
			if c.hooks.Halted != nil {
				c.hooks.Halted(c.nonMemSinceMemRetire)
			}
			c.freeUop(u)
			return
		default:
			if u.state != uopDone {
				return
			}
		}

		c.work++
		if u.ins.WritesReg() {
			c.archRegs[u.ins.Rd] = u.val
		}
		if u.ins.WritesReg() && c.regOwner[u.ins.Rd] == u {
			c.regOwner[u.ins.Rd] = nil
		}
		c.rob = c.rob[1:]
		if len(c.lsq) > 0 && c.lsq[0] == u {
			c.lsq = c.lsq[1:]
		}

		c.Stats.Retired++
		c.tel.retired.Inc(c.id)
		if c.hooks.RetireInstr != nil {
			c.hooks.RetireInstr(u.seq, u.ins.IsMem())
		}
		if u.ins.IsMem() {
			c.Stats.MemRetired++
			c.tel.memRetired.Inc(c.id)
			c.nonMemSinceMemRetire = 0
			switch {
			case u.ins.IsAtomic():
				c.Stats.AtomicsRetired++
			case u.ins.Op == isa.LD:
				c.Stats.LoadsRetired++
			default:
				c.Stats.StoresRetired++
			}
			if u.oooPerform && u.ins.Op == isa.LD {
				c.Stats.OOOLoads++
			}
		} else {
			c.nonMemSinceMemRetire++
			if u.ins.IsBranch() {
				c.Stats.BranchesRetired++
			}
		}
		if u.ins.Op != isa.ST {
			// Fully committed and unlinked from every queue: recycle.
			// Stores recycle later, when the write buffer drains them.
			c.freeUop(u)
		}
	}
}

// fenceDone reports whether every memory op older than the fence has
// performed. The fence is at the ROB head, so all older loads/atomics
// have retired (hence performed); only write buffer entries remain.
func (c *Core) fenceDone(u *uop) bool {
	for _, w := range c.wb {
		if w.seq < u.seq && !w.performed {
			return false
		}
	}
	return true
}

// issueMem issues loads, drains the write buffer, and launches
// non-speculative head operations (RMW, IN), sharing the load/store
// unit bandwidth.
func (c *Core) issueMem() {
	budget := c.cfg.LdStUnits
	c.issueHeadOps(&budget)
	c.issueLoads(&budget)
	c.drainWB(&budget)
}

// issueHeadOps launches RMW and IN at the ROB head.
func (c *Core) issueHeadOps(budget *int) {
	if len(c.rob) == 0 || *budget == 0 {
		return
	}
	u := c.rob[0]
	switch {
	case u.ins.IsAtomic() && u.state == uopWaiting && u.pendingSrc == 0:
		// Atomics act as a full fence: wait for the write buffer.
		if len(c.wb) > 0 {
			return
		}
		u.addr = isa.EffAddr(u.ins, u.srcVal[0])
		u.addrKnown = true
		ins, rs2, rd := u.ins, u.srcVal[1], u.srcVal[2]
		ok := c.mem.Submit(coherence.Request{
			Core: c.id, ID: u.seq, Addr: u.addr, Kind: coherence.RMW,
			Apply: func(old uint64) (uint64, bool) { return isa.AmoApply(ins, old, rs2, rd) },
		})
		if ok {
			c.work++
			u.state = uopIssued
			c.tel.issuedMem.Inc(c.id)
			*budget--
		}
	case u.ins.Op == isa.IN && u.state == uopWaiting:
		c.work++
		if c.inPos >= len(c.inputs) {
			c.err = isa.ErrOutOfInput
			return
		}
		v := c.inputs[c.inPos]
		c.inPos++
		u.state = uopIssued
		u.doneAt = c.cycle + 1
		u.val = v
		c.executing = append(c.executing, u)
	}
}

// issueLoads walks the LSQ in program order issuing ready loads,
// enforcing the RC ordering rules.
func (c *Core) issueLoads(budget *int) {
	storeAddrUnknown := false
	for _, u := range c.lsq {
		if *budget == 0 {
			return
		}
		ins := u.ins
		switch {
		case ins.Op == isa.FENCE:
			if !c.lsqFenceDone(u) {
				return // blocks all younger memory ops
			}
			continue
		case ins.IsAtomic():
			if !u.performed {
				return // full-fence semantics
			}
			continue
		case ins.Op == isa.ST:
			// Opportunistic address generation so younger loads can
			// disambiguate without waiting for the store data.
			if !u.addrKnown && u.srcOwner[0] == nil {
				c.work++
				u.addr = isa.EffAddr(ins, u.srcVal[0])
				u.addrKnown = true
			}
			if !u.addrKnown {
				storeAddrUnknown = true
			}
			continue
		}
		// Load.
		acquire := ins.Flags&isa.FlagAcquire != 0
		if u.state == uopWaiting && !u.performed {
			c.tryIssueLoad(u, storeAddrUnknown, budget)
		}
		if acquire && !u.performed {
			return // acquire blocks all younger memory ops
		}
		if c.cfg.Model != RC && !u.performed {
			// TSO and SC bind loads in program order: nothing younger
			// may issue past an unperformed load.
			return
		}
	}
}

// tryIssueLoad attempts to bind or launch one waiting load.
func (c *Core) tryIssueLoad(u *uop, storeAddrUnknown bool, budget *int) {
	if u.srcOwner[0] != nil {
		return // address operand not ready
	}
	if !u.addrKnown {
		c.work++
		u.addr = isa.EffAddr(u.ins, u.srcVal[0])
		u.addrKnown = true
	}
	if storeAddrUnknown {
		return // conservative: an older store address is unknown
	}
	if c.cfg.Model == SC && c.olderMemPending(u.seq) {
		return // SC: in-order perform of every memory operation
	}
	val, found, blocked := c.forwardSource(u)
	if blocked {
		return
	}
	if found {
		// Store-to-load forwarding from the write buffer or an
		// unretired older store.
		c.Stats.Forwards++
		c.tel.forwards.Inc(c.id)
		u.forwarded = true
		c.markPerformed(u)
		u.state = uopIssued
		u.doneAt = c.cycle + 1
		u.val = val
		c.executing = append(c.executing, u)
		if c.hooks.LocalPerform != nil {
			c.hooks.LocalPerform(u.seq, u.addr, val)
		}
		*budget--
		return
	}
	if !c.mem.Submit(coherence.Request{Core: c.id, ID: u.seq, Addr: u.addr, Kind: coherence.Load}) {
		*budget = 0 // MSHRs full; retry next cycle
		return
	}
	c.work++
	u.state = uopIssued
	c.tel.issuedMem.Inc(c.id)
	*budget--
}

// lsqFenceDone reports whether a fence still inside the LSQ has all
// older memory operations performed (including unretired ones).
func (c *Core) lsqFenceDone(f *uop) bool {
	for _, w := range c.wb {
		if w.seq < f.seq && !w.performed {
			return false
		}
	}
	for _, u := range c.lsq {
		if u.seq >= f.seq {
			break
		}
		if u.isMem() && !u.performed {
			return false
		}
	}
	return true
}

// forwardSource finds the youngest older store to the same address. It
// returns (value, true, false) to forward, (0, false, true) if the
// load must wait (matching store's data not ready, or an older
// same-address load is still pending), and (0, false, false) to access
// memory.
func (c *Core) forwardSource(ld *uop) (val uint64, found, blocked bool) {
	// Unretired stores and older loads, youngest first.
	for i := len(c.lsq) - 1; i >= 0; i-- {
		u := c.lsq[i]
		if u.seq >= ld.seq {
			continue
		}
		switch u.ins.Op {
		case isa.ST:
			if !u.addrKnown || u.addr != ld.addr {
				continue
			}
			if u.srcOwner[1] == nil {
				return u.srcVal[1], true, false // data ready: forward
			}
			return 0, false, true // same-address store, data pending
		case isa.LD:
			if u.addrKnown && u.addr == ld.addr && !u.performed {
				return 0, false, true // same-address load order (coherence)
			}
		}
	}
	// Write buffer, youngest first.
	for i := len(c.wb) - 1; i >= 0; i-- {
		w := c.wb[i]
		if w.seq < ld.seq && w.addr == ld.addr {
			return w.val, true, false
		}
	}
	return 0, false, false
}

// drainWB issues retired stores to memory. RC lets them complete out
// of order; release stores wait until they are the only unperformed
// memory operation.
func (c *Core) drainWB(budget *int) {
	// Sweep out stores whose perform event arrived.
	kept := c.wb[:0]
	for _, u := range c.wb {
		if u.performed {
			c.work++
			c.freeUop(u)
			continue
		}
		kept = append(kept, u)
	}
	c.wb = kept

	for i, u := range c.wb {
		if *budget == 0 {
			return
		}
		if u.wbIssued {
			continue
		}
		if c.cfg.Model != RC && i != 0 {
			// TSO/SC: the store buffer drains strictly FIFO, one
			// outstanding store at a time.
			return
		}
		if u.ins.Flags&isa.FlagRelease != 0 {
			// All older stores must have performed (older loads have:
			// they retired before this store did).
			if i != 0 {
				return
			}
		}
		if c.cfg.Model == SC && c.olderMemPending(u.seq) {
			return // SC: no store-load reordering either
		}
		// Same-address stores perform in program order.
		blocked := false
		for j := 0; j < i; j++ {
			if c.wb[j].addr == u.addr && !c.wb[j].performed {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		if !c.mem.Submit(coherence.Request{
			Core: c.id, ID: u.seq, Addr: u.addr, Kind: coherence.Store, StoreVal: u.val,
		}) {
			return
		}
		c.work++
		u.wbIssued = true
		c.tel.issuedMem.Inc(c.id)
		*budget--
	}
}

// issueALU starts execution of ready ALU-class uops. The consumed
// prefix is shifted out rather than re-sliced away, so the queue keeps
// its backing array and pushReady's insertion stops allocating.
//
//rrlint:hotpath
func (c *Core) issueALU() {
	n, pop := 0, 0
	for pop < len(c.readyALU) && n < c.cfg.IssueWidth {
		u := c.readyALU[pop]
		pop++
		c.work++
		lat := c.cfg.ALULat
		if u.ins.Op == isa.MUL {
			lat = c.cfg.MulLat
		}
		u.state = uopIssued
		u.doneAt = c.cycle + lat
		c.executing = append(c.executing, u)
		c.tel.issuedALU.Inc(c.id)
		n++
	}
	if pop > 0 {
		m := copy(c.readyALU, c.readyALU[pop:])
		clear(c.readyALU[m:len(c.readyALU)])
		c.readyALU = c.readyALU[:m]
	}
}

// dispatch brings up to IssueWidth instructions into the ROB along the
// predicted path.
func (c *Core) dispatch() {
	if c.halted || c.haltSeq >= 0 || c.cycle < c.fetchStallUntil {
		return
	}
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.pc < 0 || c.pc >= len(c.prog.Code) {
			return // off the end: wrong path, wait for squash
		}
		if len(c.rob) >= c.cfg.ROBSize {
			c.Stats.DispatchStallROB++
			c.tel.stallROB.Inc(c.id)
			return
		}
		ins := c.prog.Code[c.pc]
		if (ins.IsMem() || ins.Op == isa.FENCE) && len(c.lsq) >= c.cfg.LSQSize {
			c.Stats.DispatchStallLSQ++
			c.tel.stallLSQ.Inc(c.id)
			return
		}
		seq := c.nextSeq
		if c.hooks.DispatchInstr != nil && !c.hooks.DispatchInstr(seq, ins) {
			c.Stats.DispatchStallTRAQ++
			c.tel.stallTRAQ.Inc(c.id)
			return
		}
		c.nextSeq++
		c.work++
		u := c.allocUop(seq, c.pc, ins)
		c.captureSources(u)
		if ins.WritesReg() {
			c.regOwner[ins.Rd] = u
		}
		c.rob = pushWindow(c.rob, c.robBuf, u)

		switch {
		case ins.Op == isa.NOP:
			u.state = uopDone
			c.pc++
		case ins.Op == isa.JMP:
			u.state = uopDone
			c.pc = int(ins.Imm)
		case ins.Op == isa.HALT:
			u.state = uopDone
			c.haltSeq = int64(seq)
			return
		case ins.IsBranch():
			u.predictedTaken = c.predictTaken(c.pc)
			if u.predictedTaken {
				c.pc = int(ins.Imm)
			} else {
				c.pc++
			}
			if u.pendingSrc == 0 {
				c.pushReady(u)
			}
		case ins.IsMem() || ins.Op == isa.FENCE:
			c.lsq = pushWindow(c.lsq, c.lsqBuf, u)
			if ins.Op == isa.LD && u.pendingSrc == 0 {
				u.addr = isa.EffAddr(ins, u.srcVal[0])
				u.addrKnown = true
			}
			if ins.Op == isa.ST && u.pendingSrc == 0 {
				c.pushReady(u)
			}
			c.pc++
		case ins.Op == isa.IN:
			c.pc++
		default: // ALU
			if u.pendingSrc == 0 {
				c.pushReady(u)
			}
			c.pc++
		}
	}
}

// captureSources resolves or subscribes to the uop's register sources.
// The per-operand work lives in captureSource, a method rather than a
// closure: the closure environment was the record path's second-largest
// heap contributor.
//
//rrlint:hotpath
func (c *Core) captureSources(u *uop) {
	if u.ins.ReadsRs1() {
		c.captureSource(u, 0, u.ins.Rs1)
	}
	if u.ins.ReadsRs2() {
		c.captureSource(u, 1, u.ins.Rs2)
	}
	if u.ins.ReadsRd() {
		c.captureSource(u, 2, u.ins.Rd)
	}
}

//rrlint:hotpath
func (c *Core) captureSource(u *uop, idx int, r isa.Reg) {
	owner := c.regOwner[r]
	switch {
	case r == 0 || owner == nil:
		u.srcVal[idx] = c.archRegs[r]
	case owner.state == uopDone:
		u.srcVal[idx] = owner.val
	default:
		u.srcOwner[idx] = owner
		owner.waiters = append(owner.waiters, u)
		u.pendingSrc++
	}
}

// pushWindow appends u to q, a FIFO window over buf that retirement
// advances by re-slicing its front. When the window reaches buf's end
// it slides back to the start, so the queue never reallocates. buf
// holds twice the queue's capacity, so a slide happens at most once
// per capacity's worth of pops and moves at most that many pointers.
//
//rrlint:hotpath
func pushWindow(q, buf []*uop, u *uop) []*uop {
	if len(q) == cap(q) && len(q) < len(buf) {
		q = buf[:copy(buf, q)]
	}
	return append(q, u)
}

// allocUop returns a fresh uop, reusing a retired or squashed one when
// possible: the per-instruction heap allocation was the record path's
// largest contributor. The recycled uop's waiter slice keeps its
// backing array. Resetting the uop clears squashed, which is why
// squashAfter can hand over uops a completeExecuting snapshot still
// holds: allocUop runs only in dispatch, after that walk.
func (c *Core) allocUop(seq uint64, pc int, ins isa.Instr) *uop {
	n := len(c.freeUops)
	if n == 0 {
		return &uop{seq: seq, pc: pc, ins: ins}
	}
	u := c.freeUops[n-1]
	c.freeUops[n-1] = nil
	c.freeUops = c.freeUops[:n-1]
	// Clear in place, then set: assigning a composite literal would
	// build it on the stack and copy it in.
	w := u.waiters
	*u = uop{}
	u.seq, u.pc, u.ins, u.waiters = seq, pc, ins, w[:0]
	return u
}

// freeUop recycles a committed uop. Callers guarantee no live
// reference remains: not in any queue, not a register owner, waiter
// list already drained by finish. Squashed uops are recycled by
// squashAfter, which unlinks them first.
//
//rrlint:hotpath
func (c *Core) freeUop(u *uop) {
	c.freeUops = append(c.freeUops, u)
}

// Occupancy returns the current ROB, LSQ and write-buffer occupancy,
// for the machine's cycle-sampled telemetry tracks.
func (c *Core) Occupancy() (rob, lsq, wb int) {
	return len(c.rob), len(c.lsq), len(c.wb)
}

// WorkCount returns a monotonically increasing count of pipeline state
// changes (dispatches, wakeups, issues, completions, retires, squash
// and write-buffer activity). Two equal readings bracketing a Tick
// prove the tick changed nothing but per-cycle statistics — the
// machine's idle-cycle fast-forward builds on exactly that guarantee,
// so every Core mutation site must bump the counter.
func (c *Core) WorkCount() uint64 { return c.work }

// NextWake returns the earliest future cycle at which this core can
// make progress with no external stimulus: the earliest in-flight
// completion, or the end of a mispredict fetch stall. ok is false when
// no time-based wakeup exists (the core is quiesced, faulted, or
// waiting solely on the memory system). Only meaningful right after a
// zero-work tick; extra early wakeups are harmless, missed ones are
// not.
func (c *Core) NextWake() (cycle uint64, ok bool) {
	if c.err != nil || c.Quiesced() {
		return 0, false
	}
	for _, u := range c.executing {
		if !ok || u.doneAt < cycle {
			cycle, ok = u.doneAt, true
		}
	}
	if !c.halted && c.haltSeq < 0 && c.fetchStallUntil > c.cycle {
		if !ok || c.fetchStallUntil < cycle {
			cycle, ok = c.fetchStallUntil, true
		}
	}
	return cycle, ok
}

// String summarizes the core state for debugging.
func (c *Core) String() string {
	return fmt.Sprintf("core %d pc=%d rob=%d lsq=%d wb=%d halted=%v",
		c.id, c.pc, len(c.rob), len(c.lsq), len(c.wb), c.halted)
}
