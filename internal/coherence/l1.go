package coherence

import (
	"fmt"

	"relaxreplay/internal/interconnect"
)

// cacheLine is one L1 line.
type cacheLine struct {
	tag     uint64 // line address
	state   lineState
	data    LineData
	lastUse uint64 // LRU clock
}

// mshr tracks one outstanding miss; operations to the same line
// coalesce onto it.
type mshr struct {
	line    uint64
	wantM   bool // a store/RMW is waiting, so M is required
	issued  reqKind
	waiters []Request
}

// wbent is a writeback buffer entry: an evicted dirty line waiting for
// the L2 to order and acknowledge its PutM. The entry keeps supplying
// data to snoops until a remote write supersedes it.
type wbent struct {
	line       uint64
	data       LineData
	superseded bool
	pending    int // outstanding PutM acks for this line
}

type l1cache struct {
	sys   *System
	core  int
	sets  [][]cacheLine
	mshrs map[uint64]*mshr
	wb    map[uint64]*wbent
	clock uint64
}

func newL1(sys *System, core int) *l1cache {
	sets := make([][]cacheLine, sys.cfg.L1Sets)
	for i := range sets {
		sets[i] = make([]cacheLine, sys.cfg.L1Ways)
	}
	return &l1cache{
		sys:   sys,
		core:  core,
		sets:  sets,
		mshrs: make(map[uint64]*mshr),
		wb:    make(map[uint64]*wbent),
	}
}

func (c *l1cache) busy() bool { return len(c.mshrs) > 0 || len(c.wb) > 0 }

func (c *l1cache) set(line uint64) []cacheLine {
	return c.sets[line%uint64(len(c.sets))]
}

// lookup returns the valid line or nil.
func (c *l1cache) lookup(line uint64) *cacheLine {
	set := c.set(line)
	for i := range set {
		if set[i].state != stateI && set[i].tag == line {
			return &set[i]
		}
	}
	return nil
}

func (c *l1cache) wbEntry(line uint64) *wbent { return c.wb[line] }

func (c *l1cache) touch(cl *cacheLine) {
	c.clock++
	cl.lastUse = c.clock
}

// submit accepts one memory operation; false means "retry next cycle".
func (c *l1cache) submit(r Request) bool {
	line := LineOf(r.Addr)

	// Coalesce onto an outstanding miss.
	if m := c.mshrs[line]; m != nil {
		m.waiters = append(m.waiters, r)
		if r.Kind != Load {
			m.wantM = true
		}
		return true
	}

	cl := c.lookup(line)
	switch {
	case r.Kind == Load && cl != nil:
		c.bindLoad(r, cl)
		c.sys.Stats.L1Hits++
		c.sys.tel.l1Hits.Inc(c.core)
		return true
	case r.Kind != Load && cl != nil && (cl.state == stateM || cl.state == stateE):
		c.bindWrite(r, cl)
		c.sys.Stats.L1Hits++
		c.sys.tel.l1Hits.Inc(c.core)
		return true
	}

	// Miss (or store hit on a shared line: upgrade).
	if len(c.mshrs) >= c.sys.cfg.L1MSHRs {
		c.sys.Stats.MSHRRejects++
		c.sys.tel.mshrRejects.Inc(c.core)
		return false
	}
	kind := reqGetS
	if r.Kind != Load {
		kind = reqGetM
	}
	if cl != nil && kind == reqGetM {
		c.sys.Stats.Upgrades++
		c.sys.tel.upgrades.Inc(c.core)
	} else {
		c.sys.Stats.L1Misses++
		c.sys.tel.l1Misses.Inc(c.core)
	}
	m := &mshr{line: line, wantM: kind == reqGetM, issued: kind, waiters: []Request{r}}
	c.mshrs[line] = m
	c.request(kind, line, LineData{})
	return true
}

func (c *l1cache) request(kind reqKind, line uint64, data LineData) {
	c.sys.ring.Send(interconnect.Message{
		Src:     c.core,
		Dst:     c.sys.cfg.Cores,
		Payload: &reqMsg{kind: kind, line: line, core: c.core, data: data},
	})
}

// bindLoad reads the word, fires the perform event now, and schedules
// the pipeline completion after the L1 hit latency.
func (c *l1cache) bindLoad(r Request, cl *cacheLine) {
	c.touch(cl)
	v := cl.data[wordOf(r.Addr)]
	c.sys.perform(PerformEvent{Core: r.Core, ID: r.ID, Line: cl.tag, Addr: r.Addr, IsRead: true, Value: v})
	c.sys.complete(r.Core, r.ID, v, c.sys.cfg.L1HitLat)
}

// bindWrite applies a store or RMW to an owned (M/E) line.
func (c *l1cache) bindWrite(r Request, cl *cacheLine) {
	c.touch(cl)
	cl.state = stateM
	w := wordOf(r.Addr)
	switch r.Kind {
	case Store:
		cl.data[w] = r.StoreVal
		c.sys.perform(PerformEvent{
			Core: r.Core, ID: r.ID, Line: cl.tag, Addr: r.Addr, IsWrite: true,
			Value: r.StoreVal, StoredVal: r.StoreVal, DidWrite: true,
		})
		c.sys.complete(r.Core, r.ID, 0, c.sys.cfg.L1HitLat)
	case RMW:
		old := cl.data[w]
		newVal, write := r.Apply(old)
		if write {
			cl.data[w] = newVal
		}
		c.sys.perform(PerformEvent{
			Core: r.Core, ID: r.ID, Line: cl.tag, Addr: r.Addr, IsWrite: true, IsRead: true,
			Value: old, StoredVal: newVal, DidWrite: write,
		})
		c.sys.complete(r.Core, r.ID, old, c.sys.cfg.L1HitLat)
	default:
		panic("coherence: bindWrite on load")
	}
}

// receive handles a ring delivery at this core's station.
func (c *l1cache) receive(msg interconnect.Message, final bool) {
	switch p := msg.Payload.(type) {
	case *snoopMsg:
		if final {
			return // snoops terminate at the L2 agent, not here
		}
		if p.requester == c.core {
			return // own transaction passing by
		}
		c.sys.observeSnoop(c.core, p.line, p.kind == reqGetM, p.requester)
		data, has, held := c.snooped(p.line, p.kind == reqGetM)
		if has {
			p.ownerData, p.hasOwner = data, true
			c.sys.Stats.CacheToCache++
			c.sys.tel.cacheToCache.Inc(c.core)
		} else if held {
			p.sharerSeen = true
		}
		if c.sys.ClockOf != nil {
			// Fold this core's logical clock into the piggyback hint,
			// AFTER the snoop was observed (a conflict may just have
			// terminated an interval and advanced the clock). The fold
			// is unconditional: a core that read the line, terminated
			// the covering interval and silently evicted the line
			// still constrains the requester (write-after-read), and
			// only its clock carries that constraint.
			if h := c.sys.ClockOf(c.core); h > p.clockHint {
				p.clockHint = h
			}
		}
	case *invMsg:
		if !final {
			return
		}
		c.sys.observeSnoop(c.core, p.line, p.isWrite, p.requester)
		data, has, _ := c.snooped(p.line, p.isWrite)
		var hint uint64
		if c.sys.ClockOf != nil {
			// Unconditional for the same write-after-read reason as in
			// the snoopy path; the directory's (conservatively stale)
			// sharer set is exactly the set of cores that read the
			// line since its last write.
			hint = c.sys.ClockOf(c.core)
		}
		c.sys.ring.Send(interconnect.Message{
			Src:     c.core,
			Dst:     c.sys.cfg.Cores,
			Payload: &ackMsg{line: p.line, from: c.core, hasData: has, data: data, clockHint: hint},
		})
	case *dataMsg:
		if final {
			if c.sys.OnHint != nil {
				c.sys.OnHint(c.core, p.clockHint)
			}
			c.grant(p)
		}
	case *putAckMsg:
		if final {
			if wb := c.wb[p.line]; wb != nil {
				wb.pending--
				if wb.pending <= 0 {
					delete(c.wb, p.line)
				}
			}
		}
	}
}

// snooped applies a remote transaction for line to this cache. It
// returns the line data when this cache (or its writeback buffer) was
// the owner, plus whether the line was held at all.
func (c *l1cache) snooped(line uint64, isWrite bool) (data LineData, hasData, held bool) {
	if cl := c.lookup(line); cl != nil {
		held = true
		if cl.state == stateM {
			data, hasData = cl.data, true
		}
		if isWrite {
			cl.state = stateI
		} else if cl.state != stateS {
			cl.state = stateS
		}
		return data, hasData, held
	}
	if wb := c.wb[line]; wb != nil && !wb.superseded {
		c.sys.Stats.WBBufferSupplies++
		c.sys.tel.wbSupplies.Inc(c.core)
		if isWrite {
			wb.superseded = true
			c.sys.Stats.SupersededWBEvents++
		}
		return wb.data, true, true
	}
	return LineData{}, false, false
}

// grant installs a granted line and binds all coalesced waiters.
func (c *l1cache) grant(p *dataMsg) {
	m := c.mshrs[p.line]
	if m == nil {
		panic(fmt.Sprintf("coherence: core %d grant for line %#x without MSHR", c.core, p.line))
	}

	if m.wantM && p.state == stateS {
		// A store joined a GetS in flight and the grant is only S:
		// complete the load waiters now and upgrade for the rest.
		c.install(p.line, p.data, stateS)
		cl := c.lookup(p.line)
		rest := m.waiters[:0]
		for _, r := range m.waiters {
			if r.Kind == Load {
				c.bindLoad(r, cl)
			} else {
				rest = append(rest, r)
			}
		}
		m.waiters = rest
		m.issued = reqGetM
		c.sys.Stats.Upgrades++
		c.sys.tel.upgrades.Inc(c.core)
		c.request(reqGetM, p.line, LineData{})
		return
	}

	st := p.state
	if m.wantM {
		st = stateM // E grants upgrade silently
	}
	c.install(p.line, p.data, st)
	cl := c.lookup(p.line)
	for _, r := range m.waiters {
		if r.Kind == Load {
			c.bindLoad(r, cl)
		} else {
			c.bindWrite(r, cl)
		}
	}
	delete(c.mshrs, p.line)
}

// install places a line into the cache, evicting as needed.
func (c *l1cache) install(line uint64, data LineData, st lineState) {
	set := c.set(line)
	victim := -1
	for i := range set {
		if set[i].state != stateI && set[i].tag == line {
			victim = i // refresh in place (e.g. S copy being upgraded)
			break
		}
		if set[i].state == stateI {
			victim = i
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
		c.evict(&set[victim])
	}
	set[victim] = cacheLine{tag: line, state: st, data: data}
	c.touch(&set[victim])
}

// evict writes back a dirty victim through the writeback buffer;
// clean victims are dropped silently (MESI allows it).
func (c *l1cache) evict(cl *cacheLine) {
	if cl.state != stateM {
		return
	}
	c.sys.Stats.DirtyEvictions++
	c.sys.tel.dirtyEvicts.Inc(c.core)
	if wb := c.wb[cl.tag]; wb != nil {
		// Re-eviction before the previous PutM was acknowledged:
		// refresh the buffered data and track the extra ack.
		wb.data, wb.superseded = cl.data, false
		wb.pending++
	} else {
		c.wb[cl.tag] = &wbent{line: cl.tag, data: cl.data, pending: 1}
	}
	c.request(reqPutM, cl.tag, cl.data)
	if c.sys.OnDirtyEvict != nil {
		c.sys.OnDirtyEvict(c.core, cl.tag, c.sys.cycle)
	}
}
