// Package interconnect models the on-chip network: a unidirectional
// slotted ring with a one-cycle hop delay (paper Table 1). Nodes are
// the cores' L1 controllers plus the shared L2 agent. The ring carries
// point-to-point messages (requests, data, acks) and circulating snoop
// messages that visit every node and return to their origin, which is
// how the snoopy protocol broadcasts and how every core gets to
// observe every coherence transaction.
//
//rrlint:deterministic
package interconnect

import "relaxreplay/internal/faultinject"

// Message is one ring packet. Every message occupies one ring slot
// regardless of payload (a 32-byte-wide ring moves a header or a line
// in one slot).
type Message struct {
	Src, Dst int  // node IDs
	Visit    bool // circulate: visit every node, return to Src
	Payload  any

	pos int // current slot position (node whose station the slot is at)
}

// Delivery describes a message arrival at a node during a Tick.
type Delivery struct {
	Node int
	Msg  Message
	// Final is true when the message leaves the ring here: either it
	// reached Dst, or (for Visit messages) it returned to Src. A Visit
	// message generates a non-final delivery at every intermediate
	// node so that caches can snoop it as it passes.
	Final bool
}

// Ring is a slotted unidirectional ring with one slot per node
// position. Messages advance one hop per Tick; a node injects a
// pending message when an empty slot passes its station. Everything is
// deterministic: ties are broken by node index.
type Ring struct {
	n       int
	slots   []*Message // slot i is currently at node i's station
	pending [][]Message

	// Steady-state scratch: the advance buffer swaps roles with slots
	// each Tick, deliveries are rebuilt in place, and message boxes that
	// leave the ring are recycled for later injections, so a busy ring
	// allocates nothing per cycle.
	scratch []*Message
	out     []Delivery
	free    []*Message

	// Faults, when non-nil, perturbs injection: ic.delay holds a
	// pending message at its station for a cycle, ic.drop discards one
	// outright (the protocol-level consequence — typically a stalled
	// coherence transaction — is the point of the exercise). A nil
	// injector leaves the ring bit-for-bit deterministic.
	Faults *faultinject.Injector

	// stats
	Injected  uint64
	Delivered uint64
	Hops      uint64 // slot advances carrying a message
	Dropped   uint64 // messages discarded by fault injection
	MaxQueue  int
}

// New returns a ring connecting n nodes.
func New(n int) *Ring {
	if n < 2 {
		panic("interconnect: ring needs at least 2 nodes")
	}
	return &Ring{
		n:       n,
		slots:   make([]*Message, n),
		scratch: make([]*Message, n),
		pending: make([][]Message, n),
	}
}

// Nodes returns the number of nodes on the ring.
func (r *Ring) Nodes() int { return r.n }

// QueueDepth returns the number of messages waiting for injection
// across all stations (the telemetry "ring queue depth" time series).
func (r *Ring) QueueDepth() int {
	n := 0
	for _, q := range r.pending {
		n += len(q)
	}
	return n
}

// InFlight returns the number of occupied ring slots.
func (r *Ring) InFlight() int {
	n := 0
	for _, s := range r.slots {
		if s != nil {
			n++
		}
	}
	return n
}

// Send enqueues a message for injection at its Src node.
func (r *Ring) Send(m Message) {
	if m.Src < 0 || m.Src >= r.n || m.Dst < 0 || m.Dst >= r.n {
		panic("interconnect: node id out of range")
	}
	r.pending[m.Src] = append(r.pending[m.Src], m)
	if q := len(r.pending[m.Src]); q > r.MaxQueue {
		r.MaxQueue = q
	}
}

// Busy reports whether any message is in flight or waiting.
func (r *Ring) Busy() bool {
	for _, s := range r.slots {
		if s != nil {
			return true
		}
	}
	for _, q := range r.pending {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// Tick advances the ring one cycle and returns the deliveries that
// occurred, in deterministic order. A message injected on cycle T
// first arrives somewhere on cycle T+1 (one hop away at the earliest).
// The returned slice is valid only until the next call to Tick; copy
// the Delivery values out to hold them longer.
func (r *Ring) Tick() []Delivery {
	out := r.out[:0]

	// Advance: slot at position i moves to position (i+1) mod n. The
	// scratch buffer trades places with slots each cycle.
	next := r.scratch
	clear(next)
	for i := r.n - 1; i >= 0; i-- {
		m := r.slots[i]
		if m == nil {
			continue
		}
		p := (i + 1) % r.n
		m.pos = p
		next[p] = m
		r.Hops++
	}
	r.scratch = r.slots
	r.slots = next

	// Deliver.
	for p := 0; p < r.n; p++ {
		m := r.slots[p]
		if m == nil {
			continue
		}
		switch {
		case m.Visit && p == m.Src:
			// Returned home: leaves the ring.
			out = append(out, Delivery{Node: p, Msg: *m, Final: true})
			r.slots[p] = nil
			r.freeMsg(m)
			r.Delivered++
		case m.Visit:
			// Passing snoop: observed but stays on the ring.
			out = append(out, Delivery{Node: p, Msg: *m, Final: false})
		case p == m.Dst:
			out = append(out, Delivery{Node: p, Msg: *m, Final: true})
			r.slots[p] = nil
			r.freeMsg(m)
			r.Delivered++
		}
	}

	// Inject into freed slots.
	for p := 0; p < r.n; p++ {
		if r.slots[p] != nil || len(r.pending[p]) == 0 {
			continue
		}
		if r.Faults.Fire(faultinject.ICDelay) {
			continue // station stalls this cycle; message stays queued
		}
		m := r.pending[p][0]
		copy(r.pending[p], r.pending[p][1:])
		r.pending[p] = r.pending[p][:len(r.pending[p])-1]
		if r.Faults.Fire(faultinject.ICDrop) {
			r.Dropped++
			continue // message vanishes between station and slot
		}
		box := r.takeMsg()
		*box = m
		box.pos = p
		if box.Visit && box.Dst != box.Src {
			box.Dst = box.Src
		}
		r.slots[p] = box
		r.Injected++
	}
	r.out = out
	return out
}

// takeMsg returns a message box from the freelist, or a new one.
func (r *Ring) takeMsg() *Message {
	if n := len(r.free); n > 0 {
		m := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return m
	}
	return new(Message)
}

// freeMsg recycles a message box that left the ring. The Delivery the
// caller sees holds a value copy, so dropping the box here is safe.
func (r *Ring) freeMsg(m *Message) {
	m.Payload = nil // release the protocol payload promptly
	r.free = append(r.free, m)
}
